// Quickstart: the smallest end-to-end Inca deployment.
//
// Two simulated resources run reporters under a distributed controller;
// reports flow through the centralized controller into the depot; a data
// consumer verifies the cache against a small service agreement and prints
// the red/green summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"inca/internal/agent"
	"inca/internal/agreement"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/gridsim"
	"inca/internal/simtime"
)

func main() {
	start := time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(start)

	// 1. A virtual organization to monitor: two sites, one login node each.
	grid := core.DemoGrid(42, start.Add(-24*time.Hour))

	// 2. The server side: depot (cache + archive) behind the centralized
	//    controller.
	d := depot.New(nil)
	ctl := controller.New(d, controller.Options{
		Allowlist: []string{"login.sitea.example.org", "login.siteb.example.org"},
	})

	// 3. One distributed controller per resource, forwarding to the server.
	var agents []*agent.Agent
	for _, host := range []string{"login.sitea.example.org", "login.siteb.example.org"} {
		spec, err := core.DemoSpec(grid, host, rand.New(rand.NewSource(1)))
		if err != nil {
			log.Fatal(err)
		}
		a, err := agent.New(spec, clock, agent.SinkFunc(ctl.SubmitReport), agent.Simulated)
		if err != nil {
			log.Fatal(err)
		}
		agents = append(agents, a)
	}

	// 4. Replay ten minutes of operation on the virtual clock.
	core.DriveAgents(clock, agents, start.Add(10*time.Minute))

	st := d.Stats()
	fmt.Printf("depot received %d reports (%d bytes); cache holds %d entries in %d bytes\n\n",
		st.Received, st.Bytes, st.CacheCount, st.CacheSize)

	// 5. A data consumer: verify the cache against a service agreement.
	ag := &agreement.Agreement{
		Name: "samplegrid service agreement",
		VO:   "samplegrid",
		Packages: []agreement.PackageReq{
			{Name: "globus", Category: agreement.Grid, Version: agreement.Constraint{Op: ">=", Version: "2.4.0"}, UnitTest: true},
			{Name: "mpich", Category: agreement.Development, Version: agreement.Constraint{Op: "any"}, UnitTest: true},
			{Name: "pbs", Category: agreement.Cluster, Version: agreement.Constraint{Op: "any"}},
		},
		Services: []agreement.ServiceReq{
			{Name: "gram-gatekeeper", Category: agreement.Grid, CrossSite: true},
			{Name: "ssh", Category: agreement.Grid},
		},
		Env: []agreement.EnvReq{{Name: "GLOBUS_LOCATION", Category: agreement.Cluster}},
	}
	status, err := agreement.Evaluate(ag, d.Cache(), clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(consumer.SummaryText(status))

	// 6. Inject a failure and watch it surface on the next cycle.
	siteB, _ := grid.Resource("login.siteb.example.org")
	siteB.AddOutage(gridsim.Outage{
		Service: "gram-gatekeeper",
		From:    clock.Now(), To: clock.Now().Add(time.Hour),
		Reason: "gatekeeper crashed",
	})
	core.DriveAgents(clock, agents, clock.Now().Add(time.Minute))
	status, err = agreement.Evaluate(ag, d.Cache(), clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter injecting a gatekeeper outage at siteB:")
	for _, rs := range status.Resources {
		for _, f := range rs.Failures() {
			fmt.Printf("  %s: %s failed: %s\n", rs.Resource, f.Test, f.Detail)
		}
	}
}
