package agreement

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

func reporterBranch(resource, site, reporterName string) branch.ID {
	return branch.MustParse(fmt.Sprintf("reporter=%s,resource=%s,site=%s,vo=tg", reporterName, resource, site))
}

// TestIncrementalMatchesEvaluate drives the incremental evaluator through
// a change sequence and checks its assembled status is observably
// identical to the one-shot referenceEvaluate over the same cache at every
// step.
func TestIncrementalMatchesEvaluate(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	populateCompliant(t, c, "r2", "ncsa")
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r2", okBody())

	ag := smallAgreement()
	inc := NewIncremental(ag)
	if _, _, err := inc.Full(c, t0); err != nil {
		t.Fatal(err)
	}
	compare := func() {
		t.Helper()
		oneShot, err := referenceEvaluate(ag, c, t0)
		if err != nil {
			t.Fatal(err)
		}
		if got := inc.Status(); !reflect.DeepEqual(oneShot, got) {
			t.Fatalf("divergence:\none-shot    %+v\nincremental %+v", oneShot, got)
		}
	}
	stepAt := func(id branch.ID, resource, reporterName string, build func(r *report.Report)) {
		t.Helper()
		fabricateAt(t, c, id, resource, reporterName, build)
		if _, err := inc.Update(c, []branch.ID{id}, t0); err != nil {
			t.Fatal(err)
		}
		compare()
	}
	step := func(resource, site, reporterName string, build func(r *report.Report)) {
		t.Helper()
		stepAt(reporterBranch(resource, site, reporterName), resource, reporterName, build)
	}

	compare()
	// A resource's own report breaks and recovers.
	step("r1", "sdsc", "grid.unit.globus", failBody("went red"))
	step("r1", "sdsc", "grid.unit.globus", okBody())
	// A cross-site probe hosted on other1 fails: r1's inbound check must
	// re-verify even though no r1 branch changed.
	step("other1", "anl", "grid.xsite.gram-gatekeeper.to.r1", failBody("unreachable"))
	step("other1", "anl", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	// A brand-new resource appears mid-stream.
	step("r3", "psc", "grid.version.globus", versionBody("globus", "2.4.3"))
	// One reporter filed under two branches of a resource (a spec lists it
	// with two argument sets): the branch last in the cache's order decides,
	// whichever of the two was stored last.
	sibling := func(args string) branch.ID {
		return branch.MustParse("args=" + args + "," + reporterBranch("r1", "sdsc", "grid.unit.globus").String())
	}
	stepAt(sibling("b"), "r1", "grid.unit.globus", failBody("broken under args b"))
	stepAt(sibling("a"), "r1", "grid.unit.globus", okBody())
	// A resource whose only reports do not parse is red on every test, not
	// absent from the grid.
	garbage := func(id branch.ID) {
		t.Helper()
		if _, err := c.Update(id, []byte("<foreign/>")); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Update(c, []branch.ID{id}, t0); err != nil {
			t.Fatal(err)
		}
		compare()
	}
	garbage(branch.MustParse("reporter=x,resource=r9,site=zz,vo=tg"))
	if r9 := findResource(t, inc.Status(), "r9").Total(); r9.Pass != 0 || r9.Fail != 8 {
		t.Fatalf("garbage-only r9 = %d pass / %d fail, want 0 / 8", r9.Pass, r9.Fail)
	}
	// An existing resource's only remaining report turns to garbage.
	garbage(reporterBranch("r3", "psc", "grid.version.globus"))
	// An unrelated-branch change (no resource component) is ignored.
	if _, err := inc.Update(c, []branch.ID{branch.MustParse("x=1,vo=tg")}, t0); err != nil {
		t.Fatal(err)
	}
	compare()
}

// TestIncrementalDeltaScope checks deltas cover exactly the resources
// whose outcome changed — including the cross-site dependents — and
// nothing else.
func TestIncrementalDeltaScope(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	populateCompliant(t, c, "r2", "ncsa")
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r2", okBody())

	inc := NewIncremental(smallAgreement())
	if _, deltas, err := inc.Full(c, t0); err != nil {
		t.Fatal(err)
	} else if len(deltas) != 3 { // r1, r2, other1 — nothing else
		names := make([]string, len(deltas))
		for i, d := range deltas {
			names[i] = d.Resource
		}
		t.Fatalf("seed deltas = %v", names)
	}

	// Break r2's own service report: exactly r2 changes.
	fabricate(t, c, "r2", "ncsa", "grid.service.gram-gatekeeper", failBody("down"))
	deltas, err := inc.Update(c, []branch.ID{reporterBranch("r2", "ncsa", "grid.service.gram-gatekeeper")}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Resource != "r2" || deltas[0].Status == nil {
		t.Fatalf("deltas = %+v, want one r2 delta", deltas)
	}

	// Re-store the identical bytes: everything re-verifies clean, no
	// outcome changes, no deltas.
	deltas, err = inc.Update(c, []branch.ID{reporterBranch("r2", "ncsa", "grid.service.gram-gatekeeper")}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("idempotent re-store produced deltas: %+v", deltas)
	}

	// other1's probe to r1 goes red: r1's inbound flips (it has only one
	// prober), other1's outbound still has a working destination — so the
	// delta set is {r1, other1} at most, and must contain r1.
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r1", failBody("refused"))
	deltas, err = inc.Update(c, []branch.ID{reporterBranch("other1", "anl", "grid.xsite.gram-gatekeeper.to.r1")}, t0)
	if err != nil {
		t.Fatal(err)
	}
	sawR1 := false
	for _, d := range deltas {
		switch d.Resource {
		case "r1", "other1":
			if d.Resource == "r1" {
				sawR1 = true
			}
		default:
			t.Fatalf("unexpected delta for %s", d.Resource)
		}
	}
	if !sawR1 {
		t.Fatalf("cross-site dependency missed: no r1 delta in %+v", deltas)
	}
}

// TestIncrementalFullDetectsRemovals: a periodic Full sweep emits a
// nil-status delta for a resource that left the cache.
func TestIncrementalFullDetectsRemovals(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	populateCompliant(t, c, "r2", "ncsa")
	inc := NewIncremental(smallAgreement())
	if _, _, err := inc.Full(c, t0); err != nil {
		t.Fatal(err)
	}

	smaller := depot.NewIndexedCache()
	populateCompliant(t, smaller, "r1", "sdsc")
	_, deltas, err := inc.Full(smaller, t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var removed []string
	for _, d := range deltas {
		if d.Status == nil {
			removed = append(removed, d.Resource)
		}
	}
	if len(removed) != 1 || removed[0] != "r2" {
		t.Fatalf("removals = %v, want [r2]", removed)
	}
	if got := inc.Status(); len(got.Resources) != 1 || got.Resources[0].Resource != "r1" {
		t.Fatalf("status after removal: %+v", got.Resources)
	}
	// The removed resource's parses leave the memo; r1's seven stay.
	if len(inc.memo) != 1 || len(inc.memo["r1"]) != 7 {
		t.Fatalf("memo after removal: %d resources, %d r1 branches", len(inc.memo), len(inc.memo["r1"]))
	}
}

// TestSuffixLookupIsDeterministic: two reporters on one resource end in
// the same package suffix, one failing and one passing. The check reads
// the lexicographically smallest, so Evaluate and Incremental.Update give
// the same row on every run, whatever order the maps iterate in.
func TestSuffixLookupIsDeterministic(t *testing.T) {
	ag := &Agreement{Name: "mpi-agreement", VO: "tg", Packages: []PackageReq{
		{Name: "mpi", Category: Development, Version: Constraint{Op: "any"}},
	}}
	row := func(status *VOStatus) TestResult {
		t.Helper()
		if len(status.Resources) != 1 || len(status.Resources[0].Results) != 1 {
			t.Fatalf("status %+v, want one resource with one result", status)
		}
		return status.Resources[0].Results[0]
	}
	for run := 0; run < 50; run++ {
		c := depot.NewIndexedCache()
		fabricate(t, c, "r1", "sdsc", "b.version.mpi", versionBody("mpi", "1.2"))
		inc := NewIncremental(ag)
		if _, _, err := inc.Full(c, t0); err != nil {
			t.Fatal(err)
		}
		a := reporterBranch("r1", "sdsc", "a.version.mpi")
		fabricateAt(t, c, a, "r1", "a.version.mpi", failBody("mpi is broken"))
		if _, err := inc.Update(c, []branch.ID{a}, t0); err != nil {
			t.Fatal(err)
		}
		status, err := Evaluate(ag, c, t0)
		if err != nil {
			t.Fatal(err)
		}
		one, incremental := row(status), row(inc.Status())
		if !reflect.DeepEqual(one, incremental) {
			t.Fatalf("run %d: Evaluate %+v, Incremental.Update %+v", run, one, incremental)
		}
		if one.Pass || !one.Branch.Equal(a) {
			t.Fatalf("run %d: row %+v, want a.version.mpi's failure", run, one)
		}
	}
}
