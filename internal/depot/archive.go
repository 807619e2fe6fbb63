package depot

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
	"inca/internal/xmlscan"
)

// The archive path. The paper's depot does both jobs on every report —
// cache update and archival (Section 3.2.2) — inside the one request that
// stores it, and Figure 9 shows the archive phase dominating cache
// processing once policies match. Three things keep it cheap:
//
//   - Policy matching is O(matching policies): policies are compiled into a
//     prefix index keyed by the most general pair of their branch prefix,
//     so a store consults only the policies rooted at its own subtree.
//   - Archives live in striped shards keyed by branch|policy, so stores on
//     unrelated branches never contend on one mutex.
//   - The streaming extractor reads only the paths the matched policies
//     name, once per distinct path.
//
// Depot.store (depot.go) runs match → admit and extract → insert →
// consolidate inline, so a sample is readable when Store returns.

// compiledPolicy pairs a Policy with its pre-compiled extraction path.
type compiledPolicy struct {
	Policy
	path   report.Path
	pathOK bool // false: expression never resolves (matches Node.Find)
}

// policySet is an immutable snapshot of the uploaded policies, indexed for
// matching. Depot swaps the whole set atomically on AddPolicy, so the store
// path reads it without locking.
type policySet struct {
	all []Policy
	// byRoot indexes auto-matching policies by the most general pair of
	// their prefix: a report under branch id can only match policies whose
	// prefix ends with id's own most general pair.
	byRoot map[branch.Pair][]*compiledPolicy
	// rootless policies (empty prefix) match every branch.
	rootless []*compiledPolicy
	// byName resolves ArchiveUpdate targets (includes ManualOnly).
	byName map[string]*compiledPolicy
}

func compilePolicySet(policies []Policy) *policySet {
	set := &policySet{
		all:    policies,
		byRoot: make(map[branch.Pair][]*compiledPolicy),
		byName: make(map[string]*compiledPolicy, len(policies)),
	}
	for i := range policies {
		cp := &compiledPolicy{Policy: policies[i]}
		if p, err := report.CompilePath(policies[i].Path); err == nil {
			cp.path, cp.pathOK = p, true
		}
		set.byName[cp.Name] = cp
		if cp.ManualOnly {
			continue
		}
		if len(cp.Prefix.Pairs) == 0 {
			set.rootless = append(set.rootless, cp)
			continue
		}
		root := cp.Prefix.Pairs[len(cp.Prefix.Pairs)-1]
		set.byRoot[root] = append(set.byRoot[root], cp)
	}
	return set
}

// match appends the auto-matching policies for a branch to dst, in upload
// order (the index preserves per-root order, and candidate lists are
// disjoint).
func (s *policySet) match(dst []*compiledPolicy, id branch.ID) []*compiledPolicy {
	if len(id.Pairs) > 0 {
		for _, cp := range s.byRoot[id.Pairs[len(id.Pairs)-1]] {
			if id.HasSuffix(cp.Prefix) {
				dst = append(dst, cp)
			}
		}
	}
	return append(dst, s.rootless...)
}

// ArchiveStats are the archive counters, read from the instruments
// /metrics exposes.
type ArchiveStats struct {
	Applied uint64 // samples consolidated into archives
	Matched uint64 // stores that matched at least one policy
}

// extracted is one policy's extraction outcome for a report.
type extracted struct {
	value float64
	ok    bool
}

// archiveScratch is the scratch of one store's archive work. Stores pool
// it, so archiving at ingest rate allocates only the archive keys.
type archiveScratch struct {
	paths []report.Path
	slot  []int
	out   []extracted
	gmt   time.Time
	ext   report.Extractor
	key   []byte
}

var archiveScratchPool = sync.Pool{New: func() any { return new(archiveScratch) }}

// plan collects the distinct paths the policies name into sc.paths, so
// each is matched once per scan (several policies often archive the same
// leaf under different granularities), and in sc.slot the index of each
// policy's path, -1 for a path that never resolves.
func (sc *archiveScratch) plan(policies []*compiledPolicy) {
	sc.paths, sc.slot = sc.paths[:0], sc.slot[:0]
	for _, cp := range policies {
		if !cp.pathOK {
			sc.slot = append(sc.slot, -1)
			continue
		}
		found := -1
		for j := range sc.paths {
			if sc.paths[j].String() == cp.path.String() {
				found = j
				break
			}
		}
		if found < 0 {
			found = len(sc.paths)
			sc.paths = append(sc.paths, cp.path)
		}
		sc.slot = append(sc.slot, found)
	}
}

// collect sets sc.out and sc.gmt, policy by policy in plan's order, from
// an extraction of sc.paths.
func (sc *archiveScratch) collect(ex report.Extraction) {
	sc.out = slices.Grow(sc.out[:0], len(sc.slot))[:len(sc.slot)]
	clear(sc.out)
	for i, slot := range sc.slot {
		if slot >= 0 && ex.Found[slot] {
			sc.out[i] = extracted{ex.Values[slot], true}
		}
	}
	sc.gmt = ex.GMT
}

// admit is the admission of a report, with the extraction of sc's paths
// in the same scan (report.Extractor.Admit); a nil sc extracts nothing, as
// EntryPayload does. canonical says the report was already in canonical
// form, and payload aliases it. err is the admission's: the report cannot
// be cached. exErr is the extraction's: it cannot be archived.
func (sc *archiveScratch) admit(reportXML []byte) (payload []byte, canonical bool, ex report.Extraction, exErr, err error) {
	if sc == nil {
		if payload, canonical = xmlscan.Canonical(reportXML); !canonical {
			payload, err = xmlscan.AppendCanonical(nil, reportXML)
		}
	} else {
		payload, canonical, ex, exErr, err = sc.ext.Admit(reportXML, sc.paths)
	}
	if err != nil {
		err = fmt.Errorf("depot: report is not well-formed XML: %w", err)
	}
	return payload, canonical, ex, exErr, err
}
