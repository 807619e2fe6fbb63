package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"inca/internal/agreement"
	"inca/internal/consumer"
	"inca/internal/gridsim"
)

var start = time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC) // a Tuesday

func quietGridOptions() *gridsim.TeraGridOptions {
	opt := gridsim.TeraGridOptions{
		InstallTime:       start.Add(-30 * 24 * time.Hour),
		MondayMaintenance: true,
		// No stochastic failures: tests that assert full compliance need a
		// quiet grid.
	}
	return &opt
}

func newQuietDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewTeraGridDeployment(Options{
		Seed:         1,
		Start:        start,
		Grid:         quietGridOptions(),
		Availability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeploymentMatchesTable2(t *testing.T) {
	d := newQuietDeployment(t)
	if len(d.Agents) != 10 {
		t.Fatalf("agents = %d", len(d.Agents))
	}
	for _, h := range gridsim.TeraGridHosts {
		a, ok := d.AgentFor(h.Host)
		if !ok {
			t.Fatalf("no agent for %s", h.Host)
		}
		if a.SeriesCount() != h.Reporters {
			t.Fatalf("%s: %d series, Table 2 says %d", h.Host, a.SeriesCount(), h.Reporters)
		}
	}
	if d.TotalSeries() != 1060 {
		t.Fatalf("total = %d, want 1060", d.TotalSeries())
	}
}

func TestBuildSpecDistinctBranches(t *testing.T) {
	d := newQuietDeployment(t)
	seen := map[string]bool{}
	for _, a := range d.Agents {
		_ = a
	}
	// Rebuild one spec to inspect series directly.
	res, _ := d.Grid.Resource("tg-login1.sdsc.teragrid.org")
	spec, err := BuildSpec(d.Grid, res, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spec.Series {
		key := s.Branch.String()
		if seen[key] {
			t.Fatalf("duplicate branch %s", key)
		}
		seen[key] = true
		if v, _ := s.Branch.Get("vo"); v != VOName {
			t.Fatalf("branch %s lacks vo", key)
		}
		if v, _ := s.Branch.Get("resource"); v != res.Host {
			t.Fatalf("branch %s lacks resource", key)
		}
		if s.Limit <= 0 {
			t.Fatalf("series %s has no run-time limit", s.Reporter.Name())
		}
	}
}

func TestOneHourOfOperation(t *testing.T) {
	d := newQuietDeployment(t)
	d.RunUntil(start.Add(time.Hour), 0, nil)
	accepted, rejected, errs := d.Controller.Counters()
	if accepted != 1060 {
		t.Fatalf("accepted = %d, want 1060 (one hour of Table 2)", accepted)
	}
	if rejected != 0 || errs != 0 {
		t.Fatalf("rejected/errs = %d/%d", rejected, errs)
	}
	if d.Depot.Cache().Count() != 1060 {
		t.Fatalf("cache entries = %d", d.Depot.Cache().Count())
	}
	// Paper: the steady-state TeraGrid cache held ~1.5 MB.
	size := d.Depot.Cache().Size()
	if size < 500*1024 || size > 4*1024*1024 {
		t.Fatalf("cache size = %d bytes, outside the plausible range", size)
	}
	// Second hour replaces, not grows.
	d.RunUntil(start.Add(2*time.Hour), 0, nil)
	if d.Depot.Cache().Count() != 1060 {
		t.Fatalf("cache entries after replacement hour = %d", d.Depot.Cache().Count())
	}
}

// TestDeploymentUnpacksEnvelopes: Table 4 and Figure 8 reproduce the
// paper's deployment, whose depot unpacked an envelope for every report, so
// the deployment's controller must build one although its depot is in the
// same process.
func TestDeploymentUnpacksEnvelopes(t *testing.T) {
	d := newQuietDeployment(t)
	d.RunUntil(start.Add(10*time.Minute), 0, nil)
	responses := d.Responses()
	if len(responses) == 0 {
		t.Fatal("no reports in ten minutes")
	}
	for _, r := range responses {
		if r.Unpack <= 0 {
			t.Fatalf("report at %s stored with no envelope unpacked (%+v)", r.Branch, r)
		}
	}
}

func TestQuietGridFullyCompliant(t *testing.T) {
	d := newQuietDeployment(t)
	d.RunUntil(start.Add(time.Hour+time.Minute), 0, nil)
	status, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Resources) != 10 {
		t.Fatalf("resources evaluated = %d", len(status.Resources))
	}
	for _, rs := range status.Resources {
		if fails := rs.Failures(); len(fails) != 0 {
			t.Fatalf("%s failures on quiet grid: %+v", rs.Resource, fails[:min(3, len(fails))])
		}
	}
	// "over 900 pieces of data are compared and verified"
	if status.PiecesVerified() < 900 {
		t.Fatalf("pieces verified = %d, want > 900", status.PiecesVerified())
	}
}

func TestInjectedOutageVisibleInEvaluation(t *testing.T) {
	d := newQuietDeployment(t)
	res, _ := d.Grid.Resource("tg-login1.ncsa.teragrid.org")
	res.AddOutage(gridsim.Outage{
		Service: "gram-gatekeeper",
		From:    start, To: start.Add(2 * time.Hour),
		Reason: "gatekeeper misconfigured",
	})
	d.RunUntil(start.Add(time.Hour+time.Minute), 0, nil)
	status, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	var ncsa *agreement.ResourceStatus
	for _, rs := range status.Resources {
		if rs.Resource == "tg-login1.ncsa.teragrid.org" {
			ncsa = rs
		}
	}
	if ncsa == nil {
		t.Fatal("ncsa missing")
	}
	fails := ncsa.Failures()
	if len(fails) == 0 {
		t.Fatal("outage invisible in evaluation")
	}
	found := false
	for _, f := range fails {
		if f.Test == "gram-gatekeeper: service" && f.Detail == "gatekeeper misconfigured" {
			found = true
		}
	}
	if !found {
		t.Fatalf("gatekeeper failure not reported: %+v", fails)
	}
}

func TestSnapshotArchivesAvailability(t *testing.T) {
	d := newQuietDeployment(t)
	ticks := 0
	d.RunUntil(start.Add(90*time.Minute), 10*time.Minute, func(now time.Time) {
		if _, err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		ticks++
	})
	if ticks != 9 {
		t.Fatalf("ticks = %d, want 9", ticks)
	}
	s, err := consumer.AvailabilitySeries(d.Depot, "tg-login1.sdsc.teragrid.org",
		agreement.Grid, start, start.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, p := range s.Points {
		if !math.IsNaN(p.Values[0]) {
			known++
			// After the first full hour everything reports; quiet grid →
			// 100%. Early points may be <100 while data is missing.
		}
	}
	if known < 5 {
		t.Fatalf("known availability points = %d", known)
	}
	last := s.Points[len(s.Points)-1].Values[0]
	if math.IsNaN(last) || last < 99.9 {
		t.Fatalf("final availability = %g, want 100", last)
	}
}

func TestBranchForShape(t *testing.T) {
	id := BranchFor("grid.version.globus", "host1", "SDSC")
	if id.String() != "reporter=grid.version.globus,resource=host1,site=SDSC,vo=teragrid" {
		t.Fatalf("id = %s", id)
	}
}

func TestRunUntilIdempotentAtTarget(t *testing.T) {
	d := newQuietDeployment(t)
	target := start.Add(30 * time.Minute)
	d.RunUntil(target, 0, nil)
	if !d.Clock.Now().Equal(target) {
		t.Fatalf("clock = %v", d.Clock.Now())
	}
	before, _, _ := d.Controller.Counters()
	d.RunUntil(target, 0, nil) // no-op
	after, _, _ := d.Controller.Counters()
	if after != before {
		t.Fatalf("re-run at target fired %d extra reports", after-before)
	}
}

// The deployment, not the controller, keeps the response log Table 4 and
// Figure 8 read: one entry per report the controller accepted over the
// replay, and no more.
func TestResponsesOnePerAcceptedReport(t *testing.T) {
	d := newQuietDeployment(t)
	d.RunUntil(start.Add(30*time.Minute), 0, nil)
	accepted, _, _ := d.Controller.Counters()
	if accepted == 0 || len(d.Responses()) != accepted {
		t.Fatalf("%d responses for %d accepted reports", len(d.Responses()), accepted)
	}
	d.RunUntil(start.Add(time.Hour), 0, nil)
	accepted, _, _ = d.Controller.Counters()
	if accepted != 1060 || len(d.Responses()) != accepted {
		t.Fatalf("%d responses for %d accepted reports over one hour", len(d.Responses()), accepted)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
