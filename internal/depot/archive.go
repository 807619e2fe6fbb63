package depot

import (
	"time"

	"inca/internal/branch"
	"inca/internal/report"
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
// Depot.archive (depot.go) runs match → extract → Update inline, so a
// sample is readable when Store returns.

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

// match returns the auto-matching policies for a branch, in upload order
// (the index preserves per-root order, and candidate lists are disjoint).
func (s *policySet) match(id branch.ID) []*compiledPolicy {
	var out []*compiledPolicy
	if len(id.Pairs) > 0 {
		for _, cp := range s.byRoot[id.Pairs[len(id.Pairs)-1]] {
			if id.HasSuffix(cp.Prefix) {
				out = append(out, cp)
			}
		}
	}
	if len(s.rootless) > 0 {
		out = append(out, s.rootless...)
	}
	return out
}

// ArchiveStats are the archive counters surfaced in /debug/vars.
type ArchiveStats struct {
	Applied uint64 // samples consolidated into archives
	Matched uint64 // stores that matched at least one policy
}

// extracted is one policy's extraction outcome for a report.
type extracted struct {
	value float64
	ok    bool
}

// extract pulls every policy-referenced value out of one report; the
// streaming extractor reads only the requested paths. Returns ok=false
// when the payload is not a report (cacheable, not archivable — skipped
// silently).
func (d *Depot) extract(policies []*compiledPolicy, reportXML []byte) ([]extracted, time.Time, bool) {
	out := make([]extracted, len(policies))
	// Deduplicate paths across policies (several policies often archive the
	// same leaf under different granularities) so each distinct path is
	// matched once per scan.
	paths := make([]report.Path, 0, len(policies))
	slot := make([]int, len(policies))
	for i, cp := range policies {
		if !cp.pathOK {
			slot[i] = -1
			continue
		}
		found := -1
		for j := range paths {
			if paths[j].String() == cp.path.String() {
				found = j
				break
			}
		}
		if found < 0 {
			found = len(paths)
			paths = append(paths, cp.path)
		}
		slot[i] = found
	}
	ex, err := report.ExtractValues(reportXML, paths)
	if err != nil {
		return nil, time.Time{}, false
	}
	for i := range policies {
		if slot[i] >= 0 && ex.Found[slot[i]] {
			out[i] = extracted{ex.Values[slot[i]], true}
		}
	}
	return out, ex.GMT, true
}
