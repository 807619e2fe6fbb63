package agreement

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

// Delta is one resource's status change between evaluations — the unit
// the live status stream pushes (the paper's Figure 4 grid, one row at a
// time instead of the whole page).
type Delta struct {
	Resource string
	// Status is the resource's new verification outcome; nil when the
	// resource vanished from the cache.
	Status *ResourceStatus
}

// Incremental is the package's one agreement evaluator. It retains the
// parsed report index and the per-resource outcomes across cycles, so a
// repeated Full re-parses only the entries whose bytes changed, and
// Update re-runs verification only for resources whose input reports
// changed. Evaluate is a fresh Incremental's Full; core.Deployment keeps
// one across its snapshot cycles and the status stream drives one with
// Update. The cross-site dependency is tracked explicitly: a report named
// "grid.xsite.<svc>.to.<target>" stored under resource A is *input* to
// target's inbound check, so a change to it dirties both A and target.
//
// Staleness (MaxAge) is a function of wall time, not of any report
// change, so a caller must still run Full periodically — an idle resource
// goes red by aging, with no event to trigger it.
type Incremental struct {
	ag     *Agreement
	prefix branch.ID

	// memo holds each resource's parsed reports by branch string, so an
	// update re-parses only the branches that changed and re-indexes
	// their resource without reading the rest of the cache.
	memo       map[string]map[string]*incMemo
	byResource map[string]*indexed
	statuses   map[string]*ResourceStatus
	at         time.Time
	sweep      uint64 // counts Full calls
}

// incMemo is one branch's retained parse; rep is nil when the bytes do
// not parse as a report.
type incMemo struct {
	id    branch.ID
	xml   []byte
	rep   *report.Report
	sweep uint64 // the last Full that found the branch in the cache
}

// NewIncremental returns an incremental evaluator. Call Full once to
// seed it, then Update with changed branches.
func NewIncremental(ag *Agreement) *Incremental {
	prefix := branch.ID{}
	if ag.VO != "" {
		prefix = branch.MustParse("vo=" + ag.VO)
	}
	return &Incremental{
		ag:         ag,
		prefix:     prefix,
		memo:       make(map[string]map[string]*incMemo),
		byResource: make(map[string]*indexed),
		statuses:   make(map[string]*ResourceStatus),
	}
}

// Status assembles the current full outcome from the retained
// per-resource statuses (the live stream's snapshot).
func (inc *Incremental) Status() *VOStatus {
	status := &VOStatus{Agreement: inc.ag, At: inc.at}
	for _, r := range sortedKeys(inc.statuses) {
		status.Resources = append(status.Resources, inc.statuses[r])
	}
	return status
}

// Full rebuilds the index from the whole cache and re-verifies every
// resource, returning the deltas against the previous evaluation
// (including removals). It is both the seed and the periodic
// staleness/consistency sweep.
func (inc *Incremental) Full(cache depot.Cache, now time.Time) (*VOStatus, []Delta, error) {
	stored, err := cache.Reports(inc.prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("agreement: cache read: %w", err)
	}
	inc.sweep++
	inc.byResource = make(map[string]*indexed, len(inc.memo))
	for _, s := range stored {
		if res, ok := s.ID.Get("resource"); ok {
			m := inc.remember(res, s.ID.String(), s)
			m.sweep = inc.sweep
			inc.place(res, m)
		}
	}
	// Every resource is dirty, and removed ones are deltas too. Branches
	// this sweep did not see have left the cache.
	dirty := make(map[string]bool, len(inc.memo)+len(inc.statuses))
	for res, members := range inc.memo {
		dirty[res] = true
		for key, m := range members {
			if m.sweep != inc.sweep {
				delete(members, key)
			}
		}
		if len(members) == 0 {
			delete(inc.memo, res)
		}
	}
	for res := range inc.statuses {
		dirty[res] = true
	}
	deltas := inc.reevaluate(dirty, now)
	return inc.Status(), deltas, nil
}

// Update re-reads only the changed branches, re-verifies the resources
// they feed, and returns the resulting deltas. Branches outside the
// agreement's VO prefix or without a resource component are ignored.
func (inc *Incremental) Update(cache depot.Cache, changed []branch.ID, now time.Time) ([]Delta, error) {
	dirty := make(map[string]bool)
	touched := make(map[string]bool) // resources whose index must be rebuilt
	// touch dirties a branch's resource and, for a cross-site probe the
	// branch held, the probe's target.
	touch := func(res, key string) {
		touched[res], dirty[res] = true, true
		if m := inc.memo[res][key]; m != nil {
			if target, ok := m.xsiteTarget(); ok {
				dirty[target] = true
			}
		}
	}
	for _, b := range changed {
		if !inc.prefix.IsRoot() && !b.HasSuffix(inc.prefix) {
			continue
		}
		res, ok := b.Get("resource")
		if !ok {
			continue
		}
		stored, err := cache.Reports(b)
		if err != nil {
			return nil, fmt.Errorf("agreement: cache read %s: %w", b, err)
		}
		if len(stored) == 0 {
			// The branch left the cache: un-index whatever it held.
			key := b.String()
			touch(res, key)
			delete(inc.memo[res], key)
			continue
		}
		for _, s := range stored {
			res, ok := s.ID.Get("resource")
			if !ok {
				continue
			}
			key := s.ID.String()
			touch(res, key)
			if target, ok := inc.remember(res, key, s).xsiteTarget(); ok {
				dirty[target] = true
			}
		}
	}
	for res := range touched {
		inc.index(res)
	}
	return inc.reevaluate(dirty, now), nil
}

// remember returns the memo of the report s under resource res at branch
// key, parsing s only when its bytes differ from the memo's. Bytes that do
// not parse are remembered with a nil report: foreign data is no agreement
// input, but it still gives its resource a row (failing every test) and is
// not re-parsed while it stays unchanged. The memo keeps s.XML itself:
// Cache.Reports hands out read-only bytes that a later store replaces and
// never edits.
func (inc *Incremental) remember(res, key string, s depot.Stored) *incMemo {
	members := inc.memo[res]
	if members == nil {
		members = make(map[string]*incMemo)
		inc.memo[res] = members
	}
	m := members[key]
	if m == nil || !bytes.Equal(m.xml, s.XML) {
		m = &incMemo{id: s.ID, xml: s.XML}
		if rep, err := report.Parse(s.XML); err == nil {
			m.rep = rep
		}
		members[key] = m
	}
	return m
}

// index rebuilds one resource's report index from its memoized branches,
// placed in the cache's order (branch.Sort), as Full places them.
func (inc *Incremental) index(res string) {
	members := inc.memo[res]
	delete(inc.byResource, res)
	if len(members) == 0 {
		delete(inc.memo, res)
		return
	}
	ids := make([]branch.ID, 0, len(members))
	for _, m := range members {
		ids = append(ids, m.id)
	}
	branch.Sort(ids)
	for _, id := range ids {
		inc.place(res, members[id.String()])
	}
}

// place adds memo m to its resource's index. Placed in the cache's order,
// the first branch names the row's site, and a reporter name filed under
// several branches of the resource resolves to the last of them, as in a
// walk over cache.Reports.
func (inc *Incremental) place(res string, m *incMemo) {
	idx := inc.byResource[res]
	if idx == nil {
		site, _ := m.id.Get("site")
		idx = &indexed{site: site, reports: make(map[string]*report.Report), branch: make(map[string]branch.ID)}
		inc.byResource[res] = idx
	}
	if m.rep != nil {
		idx.reports[m.rep.Header.Name] = m.rep
		idx.branch[m.rep.Header.Name] = m.id
	}
}

// xsiteTarget extracts the destination resource from a cross-site
// reporter name ("grid.xsite.<svc>.to.<target>"); an unparseable report
// probes nothing.
func (m *incMemo) xsiteTarget() (string, bool) {
	if m.rep == nil {
		return "", false
	}
	name := m.rep.Header.Name
	if !strings.Contains(name, "grid.xsite.") {
		return "", false
	}
	i := strings.LastIndex(name, ".to.")
	if i < 0 {
		return "", false
	}
	target := name[i+len(".to."):]
	return target, target != ""
}

// reevaluate runs evaluateResource for each dirty resource and returns
// the deltas against the retained statuses.
func (inc *Incremental) reevaluate(dirty map[string]bool, now time.Time) []Delta {
	inc.at = now
	var deltas []Delta
	for _, res := range sortedKeys(dirty) {
		idx, ok := inc.byResource[res]
		if !ok {
			if _, had := inc.statuses[res]; had {
				delete(inc.statuses, res)
				deltas = append(deltas, Delta{Resource: res})
			}
			continue
		}
		rs := evaluateResource(inc.ag, res, idx, inc.byResource, now)
		if prev, ok := inc.statuses[res]; ok && equalStatus(prev, rs) {
			continue
		}
		inc.statuses[res] = rs
		deltas = append(deltas, Delta{Resource: res, Status: rs})
	}
	return deltas
}

// equalStatus compares two resource outcomes field by field (TestResult
// holds a branch.ID, which is not ==-comparable).
func equalStatus(a, b *ResourceStatus) bool {
	if a.Resource != b.Resource || a.Site != b.Site || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.Resource != y.Resource || x.Category != y.Category || x.Test != y.Test ||
			x.Pass != y.Pass || x.Detail != y.Detail || x.Pieces != y.Pieces ||
			!x.Branch.Equal(y.Branch) {
			return false
		}
	}
	return true
}
