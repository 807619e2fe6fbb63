// Netperf: the Section 4.2 performance-collection use case over the real
// network stack. The depot runs behind an HTTP querying interface, the
// centralized controller listens on TCP, and an agent forwards bandwidth
// reports over both hops — virtual time drives the schedule so a week of
// hourly pathload measurements replays in seconds, but every report
// crosses real sockets (Figure 3's topology on localhost).
//
//	go run ./examples/netperf
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"time"

	"inca/internal/agent"
	"inca/internal/catalog"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/query"
	"inca/internal/rrd"
	"inca/internal/schedule"
	"inca/internal/simtime"
	"inca/internal/wire"
)

func main() {
	days := flag.Int("days", 7, "virtual days of hourly measurements")
	flag.Parse()

	start := time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(start)
	grid := core.DemoGrid(11, start.Add(-24*time.Hour))
	const (
		srcHost = "login.sitea.example.org"
		dstHost = "login.siteb.example.org"
	)

	// Depot with an archival policy for pathload's lower bound, served
	// over HTTP.
	d := depot.New(nil)
	if err := d.AddPolicy(depot.Policy{
		Name: "bw-lower",
		Path: "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{
			Step: time.Hour, Granularity: 1, History: 30 * 24 * time.Hour,
		},
	}); err != nil {
		log.Fatal(err)
	}
	httpSrv := httptest.NewServer(query.NewServer(d).Handler())
	defer httpSrv.Close()

	// Centralized controller on TCP, forwarding to the depot over HTTP.
	ctl := controller.New(query.NewClient(httpSrv.URL), controller.Options{
		Allowlist: []string{srcHost},
		Mode:      envelope.Attachment,
		Now:       clock.Now,
	})
	tcpSrv, err := wire.Serve("127.0.0.1:0", ctl.Handle)
	if err != nil {
		log.Fatal(err)
	}
	defer tcpSrv.Close()
	fmt.Printf("depot at %s, centralized controller at %s\n", httpSrv.URL, tcpSrv.Addr())

	// The agent: hourly pathload + spruce probes toward siteB, forwarded
	// over the wire protocol.
	src, _ := grid.Resource(srcHost)
	rng := rand.New(rand.NewSource(3))
	spec := agent.Spec{
		Resource:   srcHost,
		WorkingDir: "/home/inca",
		Series: []agent.Series{
			{
				Reporter: &catalog.BandwidthReporter{Grid: grid, Source: src, DestHost: dstHost, Tool: catalog.Pathload},
				Branch:   core.BranchInVO("samplegrid", "grid.network.pathload.to."+dstHost, srcHost, "siteA"),
				Cron:     schedule.MustEvery(time.Hour, rng),
				Limit:    10 * time.Minute,
			},
			{
				Reporter: &catalog.BandwidthReporter{Grid: grid, Source: src, DestHost: dstHost, Tool: catalog.Spruce},
				Branch:   core.BranchInVO("samplegrid", "grid.network.spruce.to."+dstHost, srcHost, "siteA"),
				Cron:     schedule.MustEvery(time.Hour, rng),
				Limit:    10 * time.Minute,
			},
		},
	}
	sink, err := agent.NewWireSink(tcpSrv.Addr(), agent.DeliveryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()
	a, err := agent.New(spec, clock, sink, agent.Simulated)
	if err != nil {
		log.Fatal(err)
	}

	// Replay the measurement period.
	end := start.Add(time.Duration(*days) * 24 * time.Hour)
	core.DriveAgents(clock, []*agent.Agent{a}, end)
	// Submit only spools; wait for the controller's acks before reading.
	if err := sink.Drain(time.Minute); err != nil {
		log.Fatal(err)
	}
	st := a.Stats()
	fmt.Printf("agent forwarded %d reports (%d bytes) over TCP; %d failures\n",
		st.Runs, st.BytesSent, st.Failures)

	// A data consumer fetches the archived series and graph over HTTP —
	// the Figure 6 view.
	client := query.NewClient(httpSrv.URL)
	id := core.BranchInVO("samplegrid", "grid.network.pathload.to."+dstHost, srcHost, "siteA")
	graph, err := client.Graph(id.String(), "bw-lower", rrd.Average, start, end,
		"Pathload bandwidth siteA -> siteB (lower bound)", "Mbps")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(graph)

	points, err := client.Archive(id.String(), "bw-lower", rrd.Average, start, end)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\narchived points: %d (first %s, last %s)\n",
		len(points), points[0].Time.Format(time.RFC3339), points[len(points)-1].Time.Format(time.RFC3339))

	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("depot: %d reports, cache %d entries / %d bytes, %d archives\n",
		stats.Received, stats.CacheCount, stats.CacheSize, stats.Archives)
}
