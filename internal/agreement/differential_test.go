package agreement

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

// referenceEvaluate is the one-shot evaluation the package shipped before
// Evaluate became a fresh Incremental's Full, kept verbatim as the test
// oracle: it parses every cached report on every call and shares only
// evaluateResource with Incremental.
func referenceEvaluate(ag *Agreement, cache depot.Cache, now time.Time) (*VOStatus, error) {
	prefix := branch.ID{}
	if ag.VO != "" {
		prefix = branch.MustParse("vo=" + ag.VO)
	}
	stored, err := cache.Reports(prefix)
	if err != nil {
		return nil, fmt.Errorf("agreement: cache read: %w", err)
	}
	byResource := make(map[string]*indexed)
	for _, s := range stored {
		res, ok := s.ID.Get("resource")
		if !ok {
			continue
		}
		idx, ok := byResource[res]
		if !ok {
			site, _ := s.ID.Get("site")
			idx = &indexed{site: site, reports: make(map[string]*report.Report), branch: make(map[string]branch.ID)}
			byResource[res] = idx
		}
		rep, err := report.Parse(s.XML)
		if err != nil {
			continue // foreign data in the cache is not agreement input
		}
		idx.reports[rep.Header.Name] = rep
		idx.branch[rep.Header.Name] = s.ID
	}

	status := &VOStatus{Agreement: ag, At: now}
	resources := make([]string, 0, len(byResource))
	for r := range byResource {
		resources = append(resources, r)
	}
	sort.Strings(resources)
	for _, res := range resources {
		rs := evaluateResource(ag, res, byResource[res], byResource, now)
		status.Resources = append(status.Resources, rs)
	}
	return status, nil
}

// TestIncrementalDifferential drives seeded random caches through stores
// (sibling args= branches included), unparseable entries, cross-site probes
// to present and absent targets, clock advances past MaxAge and removals.
// After every step three evaluators must agree with referenceEvaluate: a
// retained Incremental fed only Update calls, a retained Incremental swept
// with Full, and Evaluate, a fresh Full. The deltas each retained evaluator
// returned must rebuild the same rows, as a status-stream client does.
func TestIncrementalDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runDifferential(t, seed, 60) })
	}
}

// differential is one seeded run's state.
type differential struct {
	t     *testing.T
	rng   *rand.Rand
	ag    *Agreement
	cache *depot.IndexedCache
	now   time.Time
	// upd only ever sees Update after its seeding Full; ret sees Full.
	upd, ret         *Incremental
	updRows, retRows map[string]*ResourceStatus
}

var (
	diffResources = []string{"r0", "r1", "r2", "r3"}
	diffReporters = []string{
		"grid.version.globus", "grid.unit.globus", "development.version.mpich",
		"grid.service.gram-gatekeeper", "cluster.admin.env", "cluster.admin.softenv",
		"grid.xsite.gram-gatekeeper.to.r0", "grid.xsite.gram-gatekeeper.to.r1",
		"grid.xsite.gram-gatekeeper.to.r2", "grid.xsite.gram-gatekeeper.to.ghost",
	}
)

func runDifferential(t *testing.T, seed int64, steps int) {
	ag := smallAgreement()
	ag.MaxAge = 30 * time.Minute
	d := &differential{
		t: t, rng: rand.New(rand.NewSource(seed)), ag: ag,
		cache: depot.NewIndexedCache(), now: t0,
		upd: NewIncremental(ag), ret: NewIncremental(ag),
		updRows: make(map[string]*ResourceStatus), retRows: make(map[string]*ResourceStatus),
	}
	_, deltas, err := d.upd.Full(d.cache, d.now)
	if err != nil {
		t.Fatal(err)
	}
	applyDeltas(d.updRows, deltas)
	for step := 0; step < steps; step++ {
		var changed []branch.ID
		switch op := d.rng.Intn(10); {
		case op < 5:
			for n := 1 + d.rng.Intn(3); n > 0; n-- {
				changed = append(changed, d.storeReport())
			}
		case op == 5:
			changed = append(changed, d.storeGarbage())
		case op == 6:
			changed = append(changed, d.storeIgnored())
		case op == 7:
			// Staleness moves with the clock alone, so the Update-driven
			// evaluator sweeps every cached branch.
			d.now = d.now.Add(time.Duration(d.rng.Intn(40)) * time.Minute)
			changed = d.cachedIDs()
		case op == 8:
			changed = d.removeSome()
		default:
			// Re-announce an unchanged branch: nothing may move.
			if ids := d.cachedIDs(); len(ids) > 0 {
				changed = append(changed, ids[d.rng.Intn(len(ids))])
			}
		}
		deltas, err := d.upd.Update(d.cache, changed, d.now)
		if err != nil {
			t.Fatal(err)
		}
		applyDeltas(d.updRows, deltas)
		d.check(step)
	}
}

// storeReport stores a random report from a known reporter, under a
// sibling args= branch one time in four, and returns its branch.
func (d *differential) storeReport() branch.ID {
	res := diffResources[d.rng.Intn(len(diffResources))]
	name := diffReporters[d.rng.Intn(len(diffReporters))]
	id := d.branchFor(res, name)
	if d.rng.Intn(4) == 0 {
		id = branch.MustParse("args=" + []string{"a", "b"}[d.rng.Intn(2)] + "," + id.String())
	}
	r := report.New(name, "1.0", res, d.now)
	d.body(name)(r)
	data, err := report.Marshal(r)
	if err != nil {
		d.t.Fatal(err)
	}
	if _, err := d.cache.Update(id, data); err != nil {
		d.t.Fatal(err)
	}
	return id
}

// branchFor files a resource under its own site, or one time in ten
// under another, so the site a row shows depends on branch order.
func (d *differential) branchFor(res, name string) branch.ID {
	site := "site-" + res
	if d.rng.Intn(10) == 0 {
		site = "zz"
	}
	return reporterBranch(res, site, name)
}

// body picks a passing or failing report for the reporter.
func (d *differential) body(name string) func(*report.Report) {
	pick := func(vs ...string) string { return vs[d.rng.Intn(len(vs))] }
	// Probes fail half the time, so a resource whose every probe fails
	// (the detail then quotes one of them) is common.
	if d.rng.Intn(4) == 0 || strings.Contains(name, ".xsite.") && d.rng.Intn(2) == 0 {
		return failBody(pick("down", "refused", "timed out"))
	}
	switch name {
	case "grid.version.globus":
		return versionBody("globus", pick("2.4.3", "2.2.0"))
	case "development.version.mpich":
		return versionBody("mpich", "1.2.5")
	case "cluster.admin.env":
		v := pick("/usr/globus", "/opt/globus")
		return func(r *report.Report) {
			r.Body = report.Branch("environment", "default",
				report.Branch("variable", "GLOBUS_LOCATION", report.Leaf("value", v)))
		}
	case "cluster.admin.softenv":
		k := pick("@teragrid", "@other")
		return func(r *report.Report) {
			r.Body = report.Branch("softenv", "database",
				report.Branch("entry", k, report.Leaf("definition", "+globus")))
		}
	}
	return okBody()
}

// storeGarbage stores unparseable bytes, half the time as the only data
// of a resource no reporter ever files under.
func (d *differential) storeGarbage() branch.ID {
	res := diffResources[d.rng.Intn(len(diffResources))]
	if d.rng.Intn(2) == 0 {
		res = "junk"
	}
	id := d.branchFor(res, diffReporters[d.rng.Intn(len(diffReporters))])
	if _, err := d.cache.Update(id, []byte("<foreign/>")); err != nil {
		d.t.Fatal(err)
	}
	return id
}

// storeIgnored stores a report outside the agreement's VO or without a
// resource component; no evaluator may show it.
func (d *differential) storeIgnored() branch.ID {
	id := branch.MustParse("misc=1,vo=tg")
	if d.rng.Intn(2) == 0 {
		id = branch.MustParse("reporter=grid.version.globus,resource=alien,site=x,vo=other")
	}
	r := report.New("grid.version.globus", "1.0", "alien", d.now)
	versionBody("globus", "2.4.3")(r)
	data, err := report.Marshal(r)
	if err != nil {
		d.t.Fatal(err)
	}
	if _, err := d.cache.Update(id, data); err != nil {
		d.t.Fatal(err)
	}
	return id
}

// removeSome rebuilds the cache without about a quarter of its entries
// (and everything filed under those) and returns the removed branches.
func (d *differential) removeSome() []branch.ID {
	stored, err := d.cache.Reports(branch.ID{})
	if err != nil {
		d.t.Fatal(err)
	}
	var dropped []branch.ID
	for _, s := range stored {
		if d.rng.Intn(4) == 0 {
			dropped = append(dropped, s.ID)
		}
	}
	smaller := depot.NewIndexedCache()
	var removed []branch.ID
	for _, s := range stored {
		gone := false
		for _, g := range dropped {
			gone = gone || s.ID.HasSuffix(g)
		}
		if gone {
			removed = append(removed, s.ID)
		} else if _, err := smaller.Update(s.ID, s.XML); err != nil {
			d.t.Fatal(err)
		}
	}
	d.cache = smaller
	return removed
}

func (d *differential) cachedIDs() []branch.ID {
	stored, err := d.cache.Reports(branch.ID{})
	if err != nil {
		d.t.Fatal(err)
	}
	ids := make([]branch.ID, len(stored))
	for i, s := range stored {
		ids[i] = s.ID
	}
	return ids
}

// check compares every evaluator with the oracle after a step.
func (d *differential) check(step int) {
	d.t.Helper()
	want, err := referenceEvaluate(d.ag, d.cache, d.now)
	if err != nil {
		d.t.Fatal(err)
	}
	fresh, err := Evaluate(d.ag, d.cache, d.now)
	if err != nil {
		d.t.Fatal(err)
	}
	retained, deltas, err := d.ret.Full(d.cache, d.now)
	if err != nil {
		d.t.Fatal(err)
	}
	applyDeltas(d.retRows, deltas)
	for _, got := range []struct {
		name   string
		status *VOStatus
	}{
		{"fresh Full", fresh},
		{"retained Full", retained},
		{"Update", d.upd.Status()},
		{"Full deltas", &VOStatus{Agreement: d.ag, At: d.now, Resources: rows(d.retRows)}},
		{"Update deltas", &VOStatus{Agreement: d.ag, At: d.now, Resources: rows(d.updRows)}},
	} {
		if !reflect.DeepEqual(want, got.status) {
			d.t.Fatalf("step %d: %s diverges from the reference:\nwant %s\ngot  %s",
				step, got.name, describe(want), describe(got.status))
		}
	}
}

func applyDeltas(rows map[string]*ResourceStatus, deltas []Delta) {
	for _, dl := range deltas {
		if dl.Status == nil {
			delete(rows, dl.Resource)
		} else {
			rows[dl.Resource] = dl.Status
		}
	}
}

func rows(m map[string]*ResourceStatus) []*ResourceStatus {
	var out []*ResourceStatus
	for _, name := range sortedKeys(m) {
		out = append(out, m[name])
	}
	return out
}

// describe renders a status compactly for a failure message.
func describe(s *VOStatus) string {
	out := fmt.Sprintf("at %s:", s.At.Format(time.TimeOnly))
	for _, rs := range s.Resources {
		tot := rs.Total()
		out += fmt.Sprintf(" %s@%s %d/%d", rs.Resource, rs.Site, tot.Pass, tot.Fail)
	}
	return out
}
