package agreement

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

// Category is a status-page grouping; the TeraGrid agreement uses Grid,
// Development, and Cluster (Section 4.1).
type Category string

// The TeraGrid categories.
const (
	Grid        Category = "Grid"
	Development Category = "Development"
	Cluster     Category = "Cluster"
)

// Categories lists the standard order for summaries.
var Categories = []Category{Grid, Development, Cluster}

// PackageReq requires a software package: an acceptable version and,
// optionally, a passing unit test ("Green indicates that an acceptable
// version of a software package is located on a resource and the unit
// tests pass").
type PackageReq struct {
	Name     string
	Category Category
	Version  Constraint
	// UnitTest requires the package's unit test reporter to pass.
	UnitTest bool
}

// ServiceReq requires a persistent service. CrossSite additionally applies
// the Section 3.3 metric: (1) at least one other resource can access this
// resource's service, and (2) this resource can access at least one other
// resource's service.
type ServiceReq struct {
	Name      string
	Category  Category
	CrossSite bool
}

// EnvReq requires a default-environment variable (empty Value = any).
type EnvReq struct {
	Name     string
	Value    string
	Category Category
}

// SoftEnvReq requires a SoftEnv database key.
type SoftEnvReq struct {
	Key      string
	Category Category
}

// Agreement is one machine-readable VO service agreement.
type Agreement struct {
	Name     string
	VO       string
	Packages []PackageReq
	Services []ServiceReq
	Env      []EnvReq
	SoftEnv  []SoftEnvReq
	// MaxAge marks data older than this as stale (a resource whose agent
	// stopped reporting should go red, not stay green forever). Zero
	// disables the check.
	MaxAge time.Duration
}

// TestResult is the outcome of one agreement test on one resource.
type TestResult struct {
	Resource string
	Category Category
	// Test names the check, e.g. "globus-2.4.3: version".
	Test string
	Pass bool
	// Detail carries the failure explanation shown behind the status
	// page's error link.
	Detail string
	// Branch points at the data the result came from, for debugging.
	Branch branch.ID
	// Pieces is how many cached data items this result compared (1 for
	// simple checks; the cross-site aggregates examine one report per
	// destination). Feeds PiecesVerified.
	Pieces int
}

// CategorySummary is one cell block of the Figure 4 table.
type CategorySummary struct {
	Category Category
	Pass     int
	Fail     int
}

// Percent returns the pass percentage (100 for an empty category).
func (c CategorySummary) Percent() float64 {
	total := c.Pass + c.Fail
	if total == 0 {
		return 100
	}
	return 100 * float64(c.Pass) / float64(total)
}

// Applicable reports whether the category had any tests (Figure 4 shows
// "n/a" otherwise).
func (c CategorySummary) Applicable() bool { return c.Pass+c.Fail > 0 }

// ResourceStatus is one resource's verification outcome.
type ResourceStatus struct {
	Resource string
	Site     string
	Results  []TestResult
}

// Summary rolls results up per category.
func (rs *ResourceStatus) Summary() []CategorySummary {
	out := make([]CategorySummary, len(Categories))
	for i, c := range Categories {
		out[i].Category = c
	}
	for _, r := range rs.Results {
		for i := range out {
			if out[i].Category == r.Category {
				if r.Pass {
					out[i].Pass++
				} else {
					out[i].Fail++
				}
			}
		}
	}
	return out
}

// Total returns the combined pass/fail counts.
func (rs *ResourceStatus) Total() CategorySummary {
	t := CategorySummary{Category: "Total"}
	for _, r := range rs.Results {
		if r.Pass {
			t.Pass++
		} else {
			t.Fail++
		}
	}
	return t
}

// Failures returns the failed results, for the expanded error view.
func (rs *ResourceStatus) Failures() []TestResult {
	var out []TestResult
	for _, r := range rs.Results {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}

// VOStatus is the whole VO's verification outcome.
type VOStatus struct {
	Agreement *Agreement
	At        time.Time
	Resources []*ResourceStatus
}

// PiecesVerified counts individual verified data comparisons (the paper's
// "over 900 pieces of data are compared and verified"): one per simple
// check, one per destination for the cross-site aggregates.
func (v *VOStatus) PiecesVerified() int {
	n := 0
	for _, r := range v.Resources {
		for _, res := range r.Results {
			if res.Pieces > 1 {
				n += res.Pieces
			} else {
				n++
			}
		}
	}
	return n
}

// indexed holds the parsed latest reports for one resource, keyed by
// reporter name.
type indexed struct {
	site    string
	reports map[string]*report.Report
	branch  map[string]branch.ID
}

// Evaluate verifies every resource found in the cache against the
// agreement at time now: it is the status a fresh Incremental's Full
// returns. Resources are discovered from the cached data itself (branch
// component "resource"), so a new resource needs no verifier
// configuration — mirroring the depot's no-configuration design.
func Evaluate(ag *Agreement, cache depot.Cache, now time.Time) (*VOStatus, error) {
	status, _, err := NewIncremental(ag).Full(cache, now)
	return status, err
}

func evaluateResource(ag *Agreement, res string, idx *indexed, all map[string]*indexed, now time.Time) *ResourceStatus {
	rs := &ResourceStatus{Resource: res, Site: idx.site}
	fresh := func(rep *report.Report) (bool, string) {
		if ag.MaxAge <= 0 {
			return true, ""
		}
		if age := now.Sub(rep.Header.GMT); age > ag.MaxAge {
			return false, fmt.Sprintf("data is stale (%v old)", age.Round(time.Minute))
		}
		return true, ""
	}
	// lookup finds a test's report by reporter-name suffix. When several
	// reporters end the same way, the lexicographically smallest name
	// wins, so the pick never depends on map order.
	lookup := func(suffix string) (*report.Report, branch.ID, bool) {
		pick, found := "", false
		for name := range idx.reports {
			if strings.HasSuffix(name, suffix) && (!found || name < pick) {
				pick, found = name, true
			}
		}
		if !found {
			return nil, branch.ID{}, false
		}
		return idx.reports[pick], idx.branch[pick], true
	}

	add := func(cat Category, test string, pass bool, detail string, b branch.ID) {
		rs.Results = append(rs.Results, TestResult{
			Resource: res, Category: cat, Test: test, Pass: pass, Detail: detail, Branch: b,
		})
	}

	for _, p := range ag.Packages {
		// Version check.
		test := fmt.Sprintf("%s: version %s", p.Name, p.Version)
		rep, b, ok := lookup(".version." + p.Name)
		switch {
		case !ok:
			add(p.Category, test, false, "no version report collected", branch.ID{})
		case !rep.Succeeded():
			add(p.Category, test, false, rep.Footer.ErrorMessage, b)
		default:
			if ok, why := fresh(rep); !ok {
				add(p.Category, test, false, why, b)
				break
			}
			v, found := rep.Body.Value("version,package=" + p.Name)
			switch {
			case !found:
				add(p.Category, test, false, "version report has no version element", b)
			case !p.Version.Satisfied(v):
				add(p.Category, test, false, fmt.Sprintf("installed %s does not satisfy %s", v, p.Version), b)
			default:
				add(p.Category, test, true, "", b)
			}
		}
		if !p.UnitTest {
			continue
		}
		utest := fmt.Sprintf("%s: unit test", p.Name)
		urep, ub, ok := lookup(".unit." + p.Name)
		switch {
		case !ok:
			add(p.Category, utest, false, "no unit test report collected", branch.ID{})
		case !urep.Succeeded():
			add(p.Category, utest, false, urep.Footer.ErrorMessage, ub)
		default:
			if ok, why := fresh(urep); !ok {
				add(p.Category, utest, false, why, ub)
			} else {
				add(p.Category, utest, true, "", ub)
			}
		}
	}

	for _, s := range ag.Services {
		test := s.Name + ": service"
		rep, b, ok := lookup("grid.service." + s.Name)
		switch {
		case !ok:
			add(s.Category, test, false, "no service report collected", branch.ID{})
		case !rep.Succeeded():
			add(s.Category, test, false, rep.Footer.ErrorMessage, b)
		default:
			if ok, why := fresh(rep); !ok {
				add(s.Category, test, false, why, b)
			} else {
				add(s.Category, test, true, "", b)
			}
		}
		if !s.CrossSite {
			continue
		}
		// Section 3.3's two-way availability metric.
		outOK, outDetail, outN := crossSiteOutbound(idx, s.Name)
		add(s.Category, s.Name+": cross-site outbound", outOK, outDetail, branch.ID{})
		rs.Results[len(rs.Results)-1].Pieces = outN
		inOK, inDetail, inN := crossSiteInbound(all, res, s.Name)
		add(s.Category, s.Name+": cross-site inbound", inOK, inDetail, branch.ID{})
		rs.Results[len(rs.Results)-1].Pieces = inN
	}

	envRep, eb, envOK := lookup("cluster.admin.env")
	for _, e := range ag.Env {
		test := "env " + e.Name
		if !envOK {
			add(e.Category, test, false, "no environment report collected", branch.ID{})
			continue
		}
		if !envRep.Succeeded() {
			add(e.Category, test, false, envRep.Footer.ErrorMessage, eb)
			continue
		}
		v, found := envRep.Body.Value("value,variable=" + e.Name + ",environment=default")
		switch {
		case !found:
			add(e.Category, test, false, "variable not set in default environment", eb)
		case e.Value != "" && v != e.Value:
			add(e.Category, test, false, fmt.Sprintf("value %q, agreement requires %q", v, e.Value), eb)
		default:
			add(e.Category, test, true, "", eb)
		}
	}

	seRep, sb, seOK := lookup("cluster.admin.softenv")
	for _, k := range ag.SoftEnv {
		test := "softenv " + k.Key
		if !seOK {
			add(k.Category, test, false, "no softenv report collected", branch.ID{})
			continue
		}
		if !seRep.Succeeded() {
			add(k.Category, test, false, seRep.Footer.ErrorMessage, sb)
			continue
		}
		if _, found := seRep.Body.Value("definition,entry=" + k.Key + ",softenv=database"); !found {
			add(k.Category, test, false, "key missing from SoftEnv database", sb)
		} else {
			add(k.Category, test, true, "", sb)
		}
	}

	return rs
}

// crossSiteOutbound: the resource reached at least one other resource's
// service. The third return is the number of reports examined. The
// detail quotes the failing probe last in name order, not in map order,
// so an unchanged cache always gives the same row.
func crossSiteOutbound(idx *indexed, service string) (bool, string, int) {
	attempts, successes := 0, 0
	var lastErr, lastName string
	for name, rep := range idx.reports {
		if !strings.Contains(name, "grid.xsite."+service+".to.") {
			continue
		}
		attempts++
		if rep.Succeeded() {
			successes++
		} else if name >= lastName {
			lastErr, lastName = rep.Footer.ErrorMessage, name
		}
	}
	switch {
	case attempts == 0:
		return false, "no cross-site reports collected", 0
	case successes == 0:
		return false, fmt.Sprintf("all %d destinations unreachable; last error: %s", attempts, lastErr), attempts
	default:
		return true, "", attempts
	}
}

// crossSiteInbound: at least one other resource reached this resource's
// service. The third return is the number of reports examined. The
// detail quotes the failing prober last in name order.
func crossSiteInbound(all map[string]*indexed, res, service string) (bool, string, int) {
	attempts, successes := 0, 0
	var lastErr, lastOther string
	want := "grid.xsite." + service + ".to." + res
	for other, idx := range all {
		if other == res {
			continue
		}
		for name, rep := range idx.reports {
			if name != want {
				continue
			}
			attempts++
			if rep.Succeeded() {
				successes++
			} else if other >= lastOther {
				lastErr, lastOther = rep.Footer.ErrorMessage, other
			}
		}
	}
	switch {
	case attempts == 0:
		return false, "no other resource probes this service", 0
	case successes == 0:
		return false, fmt.Sprintf("no inbound access from %d probers; last error: %s", attempts, lastErr), attempts
	default:
		return true, "", attempts
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
