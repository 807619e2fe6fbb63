// Command inca-agent runs a distributed controller daemon (paper Section
// 3.1.3) over the built-in sample grid, executing its specification file on
// a live clock and forwarding reports to a centralized controller.
//
//	inca-agent -server 127.0.0.1:6323 -host login.sitea.example.org
//	inca-agent -list    # print the specification file and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"inca/internal/agent"
	"inca/internal/core"
	"inca/internal/metrics"
	"inca/internal/query"
	"inca/internal/simtime"
)

func main() {
	var (
		server  = flag.String("server", "127.0.0.1:6323", "centralized controller address")
		specURL = flag.String("spec-url", "", "fetch the specification file from this inca-server querying interface (central configuration) instead of building it locally")
		repoDir = flag.String("repo", "", "resolve reporters from this installed script repository (inca-reporter -export) instead of in-process probes")
		host    = flag.String("host", "login.sitea.example.org", "demo resource to run on")
		seed    = flag.Int64("seed", 1, "grid seed")
		list    = flag.Bool("list", false, "print the specification file and exit")

		spool   = flag.String("spool", "", "directory for the delivery spool's disk overflow, which survives agent restarts (empty = the spool, always on, is memory-only)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-attempt wire I/O deadline (dial is capped at 10s); a hung controller fails the attempt instead of wedging the agent")

		metricsAddr = flag.String("metrics", "", "serve Prometheus text metrics on this address's /metrics (empty = disabled)")
	)
	flag.Parse()
	if *spool == "mem" {
		fmt.Fprintln(os.Stderr, "inca-agent: -spool mem is retired: the spool is always on; name a directory for disk overflow, or leave -spool empty for a memory-only spool")
		os.Exit(2)
	}

	grid := core.DemoGrid(*seed, time.Now().Add(-24*time.Hour))
	var spec agent.Spec
	var err error
	if *specURL != "" {
		data, gen, ferr := query.NewClient(*specURL).FetchSpec(*host)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		def, perr := agent.ParseSpec(data)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		if *repoDir != "" {
			// Deployed execution model: checksummed scripts from the
			// repository, run through /bin/sh.
			resolve, rerr := core.RepositoryResolver(*repoDir)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, rerr)
				os.Exit(1)
			}
			spec, err = agent.BuildFromDef(def, resolve)
		} else {
			spec, err = core.RoundTripSpec(grid, def)
		}
		if err == nil {
			fmt.Printf("specification for %s fetched from %s (generation %d)\n", *host, *specURL, gen)
		}
	} else {
		spec, err = core.DemoSpec(grid, *host, rand.New(rand.NewSource(*seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *list {
		fmt.Printf("specification file for %s (%d series):\n", *host, len(spec.Series))
		for _, s := range spec.Series {
			fmt.Printf("  %-40s cron %-14q limit %-8v -> %s\n",
				s.Reporter.Name(), s.Cron.String(), s.Limit, s.Branch)
		}
		return
	}

	// One registry covers both the agent's scheduler/executor instruments
	// and the wire path underneath it.
	reg := metrics.NewRegistry()

	// Every report goes spool → batch client; -spool only says whether the
	// spool may overflow to disk.
	sink, err := agent.NewWireSink(*server, agent.DeliveryOptions{
		Spool:     agent.SpoolOptions{Dir: *spool},
		IOTimeout: *timeout,
		Metrics:   reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sink.Close()
	a, err := agent.NewMetrics(spec, simtime.Real{}, sink, agent.Live, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "metrics listen:", lerr)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go http.Serve(ln, mux)
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}
	fmt.Printf("distributed controller on %s: %d reporter series, forwarding to %s\n",
		*host, a.SeriesCount(), *server)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		cancel()
	}()
	a.Run(ctx)
	// Best-effort final replay so a clean shutdown loses nothing; with a
	// spool directory, whatever cannot be delivered in time persists on
	// disk for the next start.
	if err := sink.Drain(10 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	st := a.Stats()
	fmt.Printf("stopped: %d runs, %d failures, %d killed, %d submit errors\n",
		st.Runs, st.Failures, st.Killed, st.SubmitErrs)
	if st.Delivery != nil {
		d := st.Delivery
		fmt.Printf("delivery: %d spooled, %d replayed, %d rejected, %d dropped, %d reconnects, %d still queued\n",
			d.Spooled, d.Replayed, d.Rejected, d.Dropped, d.Reconnects, d.Depth)
	}
}
