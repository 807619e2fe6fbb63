// Command inca-server runs the Inca server side (paper Figure 1): the
// centralized controller listening for distributed-controller TCP
// connections, an in-process depot, and the HTTP querying interface.
//
//	inca-server -tcp :6323 -http :8080 -allow hostA,hostB
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"inca/internal/agent"
	"inca/internal/agreement"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/federation"
	"inca/internal/journal"
	"inca/internal/metrics"
	"inca/internal/query"
	"inca/internal/wire"
)

func main() {
	var (
		tcpAddr  = flag.String("tcp", "127.0.0.1:6323", "address for distributed-controller connections")
		httpAddr = flag.String("http", "127.0.0.1:8080", "address for the querying interface")
		allow    = flag.String("allow", "", "comma-separated hostname allowlist (empty = allow all)")
		cacheImp = flag.String("cache", "indexed", "cache implementation: indexed is the only one a server runs on (the paper's stream, DOM, split and file caches are inca-bench ablations); the flag stays only until the benchmark harness stops passing it")
		snapshot = flag.String("snapshot", "", "depot snapshot file (memory storage only): loaded at startup if present, written at shutdown")

		storage    = flag.String("storage", "memory", "depot storage engine: memory (resident archives) or disk (paged archive files + WAL under -data)")
		dataDir    = flag.String("data", "inca-data", "storage directory for -storage disk")
		openFiles  = flag.Int("open-files", 64, "open archive file handles kept by the disk engine's LRU")
		checkpoint = flag.Duration("checkpoint", 5*time.Minute, "disk engine checkpoint interval (0 = only at shutdown)")

		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "drop distributed-controller connections idle (or stalled mid-frame) this long, so dead peers cannot pin goroutines (0 = never)")

		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/ on the querying interface")

		agreeSpec = flag.String("agreement", "", "serve a live agreement status stream on /feed?stream=status and /summary: 'teragrid' or a path to an agreement XML file")

		federate = flag.String("federate", "", "run as a federation router over this comma-separated shard list (wireAddr/httpAddr[=followerWire/followerHTTP] per shard) instead of hosting a depot: the router tees each shard's wire stream to its follower, and /federation/leave promotes the follower when the primary dies")
	)
	flag.Parse()

	// One registry spans the whole pipeline — wire, controller, depot, and
	// query instruments all land on the same /metrics page.
	reg := metrics.NewRegistry()

	if *federate != "" {
		runFederated(*federate, *tcpAddr, *httpAddr, *idleTimeout, *pprofOn, reg)
		return
	}
	if *storage == "disk" && *snapshot != "" {
		fmt.Fprintln(os.Stderr, "-snapshot requires -storage memory (a disk depot restores from -data)")
		os.Exit(2)
	}

	if *cacheImp != "indexed" {
		fmt.Fprintf(os.Stderr, "unknown cache %q\n", *cacheImp)
		os.Exit(2)
	}
	opts := depot.Options{Metrics: reg}

	var d *depot.Depot
	switch *storage {
	case "disk":
		dd, err := depot.OpenDisk(depot.DiskOptions{Options: opts, Dir: *dataDir, OpenFiles: *openFiles})
		if err != nil {
			fmt.Fprintf(os.Stderr, "storage %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		d = dd
		st := d.Stats()
		fmt.Printf("disk depot %s: %d cached entries, %d archives, %d policies\n",
			*dataDir, st.CacheCount, st.Archives, len(d.Policies()))
	case "memory":
		if *snapshot != "" {
			// Only a missing file means first start: a snapshot that cannot
			// be opened must not be overwritten at shutdown by an empty depot.
			f, err := os.Open(*snapshot)
			if err == nil {
				d, err = depot.ReadSnapshotOptions(f, opts)
				f.Close()
			}
			switch {
			case err == nil:
				st := d.Stats()
				fmt.Printf("restored depot snapshot: %d cached entries, %d archives, %d policies\n",
					st.CacheCount, st.Archives, len(d.Policies()))
			case !errors.Is(err, fs.ErrNotExist):
				fmt.Fprintf(os.Stderr, "snapshot %s: %v\n", *snapshot, err)
				os.Exit(1)
			}
		}
		if d == nil {
			d = depot.NewWithOptions(nil, opts)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown storage %q\n", *storage)
		os.Exit(2)
	}
	// The availability policy ships with the server, but a restored depot
	// (snapshot or disk checkpoint/WAL) may already carry it.
	if !hasPolicy(d, consumer.AvailabilityPolicy().Name) {
		if err := d.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var allowlist []string
	if *allow != "" {
		allowlist = strings.Split(*allow, ",")
	}
	ctl := controller.New(d, controller.Options{Allowlist: allowlist, Metrics: reg})

	srv, err := wire.ServeOptions(*tcpAddr, ctl.Handle, wire.ServerOptions{IdleTimeout: *idleTimeout, Metrics: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcp listen:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("centralized controller listening on %s (depot in process)\n", srv.Addr())

	// Central configuration: serve specification files over /spec. The
	// sample grid's specs are preloaded so `inca-agent -spec-url` works
	// out of the box; real deployments POST their own.
	qsrv := query.NewServerMetrics(d, reg)
	qsrv.Pprof = *pprofOn

	// Attach the change feed after the depot's own policy setup so feed
	// subscribers only ever observe steady-state commits.
	fopts := query.FeedOptions{Metrics: reg}
	if *agreeSpec != "" {
		ag := agreement.TeraGrid()
		if *agreeSpec != "teragrid" {
			data, err := os.ReadFile(*agreeSpec)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if ag, err = agreement.Parse(data); err != nil {
				fmt.Fprintf(os.Stderr, "agreement %s: %v\n", *agreeSpec, err)
				os.Exit(1)
			}
		}
		fopts.Agreement = ag
		fmt.Printf("status stream: agreement %s\n", ag.Name)
	}
	qfeed := query.NewFeed(d, fopts)
	qsrv.Feed = qfeed
	specs := qsrv.EnableSpecs()
	demoGrid := core.DemoGrid(1, time.Now().Add(-24*time.Hour))
	for _, res := range demoGrid.Resources() {
		spec, err := core.DemoSpec(demoGrid, res.Host, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data, err := agent.MarshalSpec(spec.Def())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := specs.Put(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Periodic checkpoints bound both WAL replay time after a crash and the
	// page-cache durability window (DESIGN.md §5f).
	checkpointEvery := *checkpoint
	if !d.DiskBacked() {
		checkpointEvery = 0
	}
	serve(*httpAddr, "querying interface on http://%s (/cache /reports /archive /graph /feed /stats /metrics)\n", qsrv.Handler(), func() {
		st := d.Stats()
		accepted, rejected, errs := ctl.Counters()
		fmt.Printf("depot: %d reports (%d bytes), cache %d entries / %d bytes; controller: %d ok, %d rejected, %d errors\n",
			st.Received, st.Bytes, st.CacheCount, st.CacheSize, accepted, rejected, errs)
	}, checkpointEvery, func() {
		if err := d.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
		}
	})

	// Stop ingest before depot teardown: srv.Close returns only after
	// every in-flight connection handler has finished, so no store can
	// race the final checkpoint or snapshot.
	srv.Close()
	// Detach the publisher and end subscribers before the depot closes
	// underneath them.
	qfeed.Close()
	if d.DiskBacked() {
		// Fold the WAL into the checkpoint so the next start replays
		// nothing; the WAL still covers us if this fails mid-way.
		if err := d.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
		} else {
			fmt.Println("depot checkpoint written")
		}
	}
	if *snapshot != "" {
		// Written atomically (temp + fsync + rename): a crash here leaves
		// the previous snapshot intact, never a torn image.
		if err := journal.AtomicWriteFile(*snapshot, d.WriteSnapshot); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot %s: %v\n", *snapshot, err)
			os.Exit(1)
		}
		fmt.Printf("depot snapshot written to %s\n", *snapshot)
	}
	// On disk, closes every archive handle and the live WAL segment.
	d.Close()
}

// serve runs the querying interface h on addr until SIGINT or SIGTERM,
// then closes it and returns for the caller to tear its tier down. banner
// is printed with the address bound; report runs once a minute, and
// periodic every `every` when that is positive.
func serve(addr, banner string, h http.Handler, report func(), every time.Duration, periodic func()) {
	// Listen before serving so ":0" reports the port actually bound —
	// smoke tests (and operators) read it off stdout.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "http listen:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: h}
	go func() {
		fmt.Printf(banner, ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "http:", err)
			os.Exit(1)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	minute := time.NewTicker(60 * time.Second)
	defer minute.Stop()
	var periodicC <-chan time.Time // nil, so never ready, without a period
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		periodicC = t.C
	}
	for {
		select {
		case <-minute.C:
			report()
		case <-periodicC:
			periodic()
		case <-sig:
			fmt.Println("shutting down")
			httpSrv.Close()
			return
		}
	}
}

// hasPolicy reports whether the depot already carries a policy by name.
func hasPolicy(d *depot.Depot, name string) bool {
	for _, p := range d.Policies() {
		if p.Name == name {
			return true
		}
	}
	return false
}

// runFederated runs the binary as a federation router: the same wire
// listener agents already point at, but every accepted message forwards
// to the shard owning its branch (and tees to the shard's follower when
// one is configured — DESIGN.md §5c), and the HTTP side is the
// scatter-gather query tier instead of a local depot (DESIGN.md §5h).
func runFederated(topology, tcpAddr, httpAddr string, idleTimeout time.Duration, pprofOn bool, reg *metrics.Registry) {
	shards, err := federation.ParseShards(topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{Metrics: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv, err := wire.ServeOptions(tcpAddr, router.Handle, wire.ServerOptions{IdleTimeout: idleTimeout, Metrics: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcp listen:", err)
		os.Exit(1)
	}
	defer srv.Close()
	ring := router.Ring()
	fmt.Printf("federation router listening on %s (%d shards, %d replicas, depth %d)\n",
		srv.Addr(), len(shards), ring.Replicas(), ring.Depth())
	followers := 0
	for _, s := range shards {
		if s.HasReplica() {
			followers++
		}
	}
	if followers > 0 {
		fmt.Printf("replication: %d of %d shards have followers (tee mode)\n", followers, len(shards))
	}

	fed := query.NewFederated(router, query.FederatedOptions{Metrics: reg, Pprof: pprofOn})
	// The tier subscribes to every shard's /feed and re-serves the merged
	// stream with composed cursors; shards without /feed turn the tier's
	// /feed into a 503 until they are upgraded.
	ffeed := fed.AttachFeed(reg)
	serve(httpAddr, "federated querying interface on http://%s (/cache /reports /archive /availability /feed /shards /metrics)\n", fed.Handler(), func() {
		st := router.Stats()
		fmt.Printf("router: %d routed, %d rerouted, %d unroutable, %d refused, %d reroute-dropped, %d promotions across %d shards\n",
			st.Routed, st.Rerouted, st.Unroutable, st.Refused, st.RerouteDropped, st.Promotions, len(st.Shards))
	}, 0, nil)

	ffeed.Close()
	fed.Close()
	// Stop accepting before the drain so the barrier is final.
	srv.Close()
	if err := router.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	router.Close()
}
