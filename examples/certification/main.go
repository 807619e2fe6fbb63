// Certification: the site-interoperability certification use case (paper
// Section 2.1) — "a Grid can define a suite of tests for service agreement
// verification and run that suite on any other Grid where user-level
// access can be obtained."
//
// TeraGrid wants to certify the two-site "samplegrid" collaboration for
// application porting. TeraGrid's certification suite (a trimmed service
// agreement: the packages and services a ported application needs) is run
// by agents on samplegrid's resources under a certification VO; the
// resulting compliance report says whether the collaboration can proceed
// and exactly what is missing.
//
//	go run ./examples/certification
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
	"inca/internal/simtime"
)

func main() {
	start := time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(start)

	// The collaborating grid we were given user-level accounts on. Note
	// siteB never installed atlas — certification should catch it.
	grid := core.DemoGrid(21, start.Add(-24*time.Hour))
	hosts := []string{"login.sitea.example.org", "login.siteb.example.org"}
	if r, ok := grid.Resource(hosts[1]); ok {
		// Simulate the gap by breaking the unit test permanently: the
		// package "exists" but never worked on siteB.
		if err := r.BreakPackage("atlas", start.Add(-23*time.Hour)); err != nil {
			log.Fatal(err)
		}
	}

	// The certification suite: what a ported TeraGrid application needs.
	suite := &agreement.Agreement{
		Name: "TeraGrid application-porting certification 1.0",
		VO:   "samplegrid",
		Packages: []agreement.PackageReq{
			{Name: "globus", Category: agreement.Grid, Version: agreement.Constraint{Op: ">=", Version: "2.4.0"}, UnitTest: true},
			{Name: "mpich", Category: agreement.Development, Version: agreement.Constraint{Op: ">=", Version: "1.2.5"}, UnitTest: true},
			{Name: "atlas", Category: agreement.Development, Version: agreement.Constraint{Op: "any"}, UnitTest: true},
		},
		Services: []agreement.ServiceReq{
			{Name: "gram-gatekeeper", Category: agreement.Grid, CrossSite: true},
			{Name: "gridftp", Category: agreement.Grid, CrossSite: true},
		},
		Env: []agreement.EnvReq{{Name: "GLOBUS_LOCATION", Category: agreement.Cluster}},
	}

	// Standard Inca plumbing under the certification account.
	d := depot.New(nil)
	ctl := controller.New(d, controller.Options{Allowlist: hosts, Now: clock.Now})
	var agents []*agent.Agent
	for _, host := range hosts {
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

	// One certification pass: every reporter runs at least once.
	core.DriveAgents(clock, agents, start.Add(2*time.Minute))

	status, err := agreement.Evaluate(suite, d.Cache(), clock.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(consumer.SummaryText(status))

	// The certification verdict.
	fmt.Println()
	certified := true
	for _, rs := range status.Resources {
		total := rs.Total()
		verdict := "CERTIFIED"
		if total.Fail > 0 {
			verdict = "NOT certified"
			certified = false
		}
		fmt.Printf("%-30s %s (%d/%d checks passed)\n", rs.Resource, verdict, total.Pass, total.Pass+total.Fail)
	}
	if certified {
		fmt.Println("\ncollaboration certified: applications can be ported as-is")
	} else {
		fmt.Println("\ncollaboration blocked; the expanded error view above lists the exact gaps")
	}
}
