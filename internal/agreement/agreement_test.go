package agreement

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

var t0 = time.Date(2004, 7, 13, 10, 0, 0, 0, time.UTC)

// fabricate stores a reporter's output in the cache under the conventional
// branch layout.
func fabricate(t *testing.T, c depot.Cache, resource, site, reporterName string, build func(r *report.Report)) {
	t.Helper()
	r := report.New(reporterName, "1.0", resource, t0)
	build(r)
	data, err := report.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse(fmt.Sprintf("reporter=%s,resource=%s,site=%s,vo=tg", reporterName, resource, site))
	if _, err := c.Update(id, data); err != nil {
		t.Fatal(err)
	}
}

func versionBody(pkg, version string) func(*report.Report) {
	return func(r *report.Report) {
		r.Body = report.Branch("package", pkg, report.Leaf("version", version))
	}
}

func okBody() func(*report.Report) {
	return func(r *report.Report) {
		r.Body = report.Branch("probe", "x", report.Leaf("ok", "1"))
	}
}

func failBody(msg string) func(*report.Report) {
	return func(r *report.Report) { r.Fail("%s", msg) }
}

func smallAgreement() *Agreement {
	return &Agreement{
		Name: "test-agreement",
		VO:   "tg",
		Packages: []PackageReq{
			{Name: "globus", Category: Grid, Version: Constraint{Op: ">=", Version: "2.4.0"}, UnitTest: true},
			{Name: "mpich", Category: Development, Version: Constraint{Op: "any"}},
		},
		Services: []ServiceReq{{Name: "gram-gatekeeper", Category: Grid, CrossSite: true}},
		Env:      []EnvReq{{Name: "GLOBUS_LOCATION", Value: "/usr/globus", Category: Cluster}},
		SoftEnv:  []SoftEnvReq{{Key: "@teragrid", Category: Cluster}},
	}
}

// populate fills the cache so resource r1 fully complies.
func populateCompliant(t *testing.T, c depot.Cache, res, site string) {
	fabricate(t, c, res, site, "grid.version.globus", versionBody("globus", "2.4.3"))
	fabricate(t, c, res, site, "grid.unit.globus", okBody())
	fabricate(t, c, res, site, "development.version.mpich", versionBody("mpich", "1.2.5"))
	fabricate(t, c, res, site, "grid.service.gram-gatekeeper", okBody())
	fabricate(t, c, res, site, "grid.xsite.gram-gatekeeper.to.other1", okBody())
	fabricate(t, c, res, site, "cluster.admin.env", func(r *report.Report) {
		r.Body = report.Branch("environment", "default",
			report.Branch("variable", "GLOBUS_LOCATION", report.Leaf("value", "/usr/globus")))
	})
	fabricate(t, c, res, site, "cluster.admin.softenv", func(r *report.Report) {
		r.Body = report.Branch("softenv", "database",
			report.Branch("entry", "@teragrid", report.Leaf("definition", "+globus")))
	})
}

func TestFullyCompliantResource(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	// Another resource probing r1 inbound.
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", okBody())

	status, err := Evaluate(smallAgreement(), c, t0)
	if err != nil {
		t.Fatal(err)
	}
	var r1 *ResourceStatus
	for _, rs := range status.Resources {
		if rs.Resource == "r1" {
			r1 = rs
		}
	}
	if r1 == nil {
		t.Fatal("r1 not discovered")
	}
	if fails := r1.Failures(); len(fails) != 0 {
		t.Fatalf("failures on compliant resource: %+v", fails)
	}
	total := r1.Total()
	// 2 version + 1 unit + 1 service + 2 cross-site + 1 env + 1 softenv = 8
	if total.Pass != 8 {
		t.Fatalf("pass = %d, want 8 (results: %+v)", total.Pass, r1.Results)
	}
	if r1.Site != "sdsc" {
		t.Fatalf("site = %q", r1.Site)
	}
}

func TestVersionConstraintViolation(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	// Downgrade globus below the constraint.
	fabricate(t, c, "r1", "sdsc", "grid.version.globus", versionBody("globus", "2.2.4"))

	status, _ := Evaluate(smallAgreement(), c, t0)
	r1 := findResource(t, status, "r1")
	fails := r1.Failures()
	if len(fails) != 1 {
		t.Fatalf("failures = %+v", fails)
	}
	if !strings.Contains(fails[0].Detail, "2.2.4") {
		t.Fatalf("detail = %q", fails[0].Detail)
	}
	if fails[0].Category != Grid {
		t.Fatalf("category = %s", fails[0].Category)
	}
}

func TestMissingReportsFail(t *testing.T) {
	c := depot.NewIndexedCache()
	// Only one report for r1; everything else missing.
	fabricate(t, c, "r1", "sdsc", "grid.version.globus", versionBody("globus", "2.4.3"))
	status, _ := Evaluate(smallAgreement(), c, t0)
	r1 := findResource(t, status, "r1")
	total := r1.Total()
	if total.Pass != 1 {
		t.Fatalf("pass = %d, want 1", total.Pass)
	}
	if total.Fail != 7 {
		t.Fatalf("fail = %d, want 7: %+v", total.Fail, r1.Results)
	}
}

func TestFailedUnitTestSurfacesMessage(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	fabricate(t, c, "r1", "sdsc", "grid.unit.globus", failBody("duroc mpi helloworld to jobmanager-pbs test failed"))
	status, _ := Evaluate(smallAgreement(), c, t0)
	r1 := findResource(t, status, "r1")
	fails := r1.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "duroc") {
		t.Fatalf("failures = %+v", fails)
	}
}

func TestCrossSiteTwoWayMetric(t *testing.T) {
	// Outbound OK but nobody reaches r1 inbound → inbound fails.
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	status, _ := Evaluate(smallAgreement(), c, t0)
	r1 := findResource(t, status, "r1")
	var inbound *TestResult
	for i := range r1.Results {
		if strings.Contains(r1.Results[i].Test, "inbound") {
			inbound = &r1.Results[i]
		}
	}
	if inbound == nil || inbound.Pass {
		t.Fatalf("inbound = %+v", inbound)
	}

	// One prober failing, one succeeding → inbound passes (at least one).
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", failBody("timeout"))
	fabricate(t, c, "other2", "anl", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	status, _ = Evaluate(smallAgreement(), c, t0)
	r1 = findResource(t, status, "r1")
	for _, res := range r1.Results {
		if strings.Contains(res.Test, "inbound") && !res.Pass {
			t.Fatalf("inbound should pass with one successful prober: %+v", res)
		}
	}

	// All outbound destinations failing → outbound fails.
	fabricate(t, c, "r1", "sdsc", "grid.xsite.gram-gatekeeper.to.other1", failBody("unreachable"))
	status, _ = Evaluate(smallAgreement(), c, t0)
	r1 = findResource(t, status, "r1")
	for _, res := range r1.Results {
		if strings.Contains(res.Test, "outbound") && res.Pass {
			t.Fatalf("outbound should fail: %+v", res)
		}
	}
}

func TestStaleDataFails(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	ag := smallAgreement()
	ag.MaxAge = time.Hour
	// Evaluate far in the future: version/unit/service/env checks go stale.
	status, _ := Evaluate(ag, c, t0.Add(26*time.Hour))
	r1 := findResource(t, status, "r1")
	stale := 0
	for _, f := range r1.Failures() {
		if strings.Contains(f.Detail, "stale") {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("no stale failures: %+v", r1.Results)
	}
}

func TestEnvValueMismatch(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	fabricate(t, c, "r1", "sdsc", "cluster.admin.env", func(r *report.Report) {
		r.Body = report.Branch("environment", "default",
			report.Branch("variable", "GLOBUS_LOCATION", report.Leaf("value", "/opt/other")))
	})
	status, _ := Evaluate(smallAgreement(), c, t0)
	r1 := findResource(t, status, "r1")
	fails := r1.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "/opt/other") {
		t.Fatalf("failures = %+v", fails)
	}
}

func TestCategorySummaryPercent(t *testing.T) {
	s := CategorySummary{Category: Grid, Pass: 32, Fail: 1}
	if pct := s.Percent(); pct < 96 || pct > 97 {
		t.Fatalf("percent = %g", pct) // Figure 4 shows 96% for 32/1
	}
	empty := CategorySummary{Category: Cluster}
	if empty.Percent() != 100 || empty.Applicable() {
		t.Fatal("empty category should be 100%/n-a")
	}
}

func TestSummaryByCategory(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	fabricate(t, c, "other1", "ncsa", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	status, _ := Evaluate(smallAgreement(), c, t0)
	r1 := findResource(t, status, "r1")
	sums := r1.Summary()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	byCat := map[Category]CategorySummary{}
	for _, s := range sums {
		byCat[s.Category] = s
	}
	// Grid: globus version + unit + service + 2 cross-site = 5.
	if byCat[Grid].Pass != 5 {
		t.Fatalf("Grid = %+v", byCat[Grid])
	}
	if byCat[Development].Pass != 1 {
		t.Fatalf("Development = %+v", byCat[Development])
	}
	if byCat[Cluster].Pass != 2 {
		t.Fatalf("Cluster = %+v", byCat[Cluster])
	}
}

func TestPiecesVerified(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	populateCompliant(t, c, "r2", "ncsa")
	status, _ := Evaluate(smallAgreement(), c, t0)
	if got := status.PiecesVerified(); got != 16 {
		t.Fatalf("pieces = %d, want 16", got)
	}
}

func TestEvaluateIgnoresForeignCacheData(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	// Foreign XML under a resource branch must not break evaluation.
	if _, err := c.Update(branch.MustParse("x=1,resource=r1,vo=tg"), []byte("<foreign/>")); err != nil {
		t.Fatal(err)
	}
	// Data without a resource component is skipped.
	if _, err := c.Update(branch.MustParse("misc=1,vo=tg"), []byte("<foreign2/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(smallAgreement(), c, t0); err != nil {
		t.Fatal(err)
	}
}

func TestVOFiltering(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc") // vo=tg
	// A resource in another VO must be invisible.
	r := report.New("grid.version.globus", "1.0", "alien", t0)
	r.Body = report.Branch("package", "globus", report.Leaf("version", "2.4.3"))
	data, _ := report.Marshal(r)
	if _, err := c.Update(branch.MustParse("reporter=grid.version.globus,resource=alien,site=x,vo=other"), data); err != nil {
		t.Fatal(err)
	}
	status, _ := Evaluate(smallAgreement(), c, t0)
	for _, rs := range status.Resources {
		if rs.Resource == "alien" {
			t.Fatal("resource from another VO evaluated")
		}
	}
}

func findResource(t *testing.T, status *VOStatus, name string) *ResourceStatus {
	t.Helper()
	for _, rs := range status.Resources {
		if rs.Resource == name {
			return rs
		}
	}
	t.Fatalf("resource %s not in status", name)
	return nil
}
