package query

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"inca/internal/agent"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/report"
	"inca/internal/rrd"
	"io"
)

var t0 = time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)

func newTestServer(t *testing.T) (*httptest.Server, *depot.Depot) {
	t.Helper()
	d := depot.New(nil)
	ts := httptest.NewServer(NewServer(d).Handler())
	t.Cleanup(ts.Close)
	return ts, d
}

func sampleEnvelope(t *testing.T, id string, at time.Time, value float64) []byte {
	t.Helper()
	r := report.New("grid.network.pathload", "1.0", "h", at)
	r.Body = report.Branch("metric", "bandwidth",
		report.Branch("statistic", "lowerBound",
			report.Leaff("value", "%.2f", value),
			report.Leaf("units", "Mbps")))
	data, err := report.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	env, err := envelope.Encode(envelope.Body, branch.MustParse(id), data)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestStoreAndCacheRoundTrip(t *testing.T) {
	ts, d := newTestServer(t)
	c := NewClient(ts.URL)
	rec, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", t0, 990))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReportSize == 0 || rec.CacheSize == 0 || !rec.Added {
		t.Fatalf("receipt = %+v", rec)
	}
	if !rec.Branch.Equal(branch.MustParse("tool=pathload,site=sdsc")) {
		t.Fatalf("receipt branch = %s", rec.Branch)
	}
	if d.Cache().Count() != 1 {
		t.Fatal("not stored")
	}
	sub, err := c.Cache("site=sdsc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sub), "990.00") {
		t.Fatalf("cache subtree: %s", sub)
	}
	// Whole cache.
	all, err := c.Cache("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(all), "<cache>") {
		t.Fatalf("whole cache: %.60s", all)
	}
	// Missing branch → error.
	if _, err := c.Cache("site=nowhere"); err == nil {
		t.Fatal("phantom branch succeeded")
	}
}

func TestStoreRejectsJunk(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := c.StoreEnvelope([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
	resp, err := http.Get(ts.URL + "/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /store = %d", resp.StatusCode)
	}
}

func TestPolicyUploadAndArchiveFetch(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	err := c.UploadPolicy(depot.Policy{
		Name:   "bw",
		Prefix: branch.MustParse("site=sdsc"),
		Path:   "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{
			Step: time.Hour, Granularity: 1, History: 7 * 24 * time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate upload conflicts.
	if err := c.UploadPolicy(depot.Policy{
		Name:    "bw",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: time.Hour},
	}); err == nil {
		t.Fatal("duplicate policy accepted")
	}
	for i := 1; i <= 12; i++ {
		if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc",
			t0.Add(time.Duration(i)*time.Hour), 900+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	points, err := c.Archive("tool=pathload,site=sdsc", "bw", rrd.Average, t0, t0.Add(13*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("points = %d", len(points))
	}
	known := 0
	for _, p := range points {
		if !math.IsNaN(p.Value) {
			known++
		}
	}
	if known < 10 {
		t.Fatalf("known = %d", known)
	}
	g, err := c.Graph("tool=pathload,site=sdsc", "bw", rrd.Average, t0, t0.Add(13*time.Hour), "Bandwidth SDSC", "Mbps")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g, "Bandwidth SDSC") || !strings.Contains(g, "*") {
		t.Fatalf("graph:\n%s", g)
	}
}

func TestArchiveErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := c.Archive("a=1", "ghost", rrd.Average, t0, t0.Add(time.Hour)); err == nil {
		t.Fatal("missing archive succeeded")
	}
	// Bad params.
	resp, err := http.Get(ts.URL + "/archive?branch=a=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing policy param = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/archive?branch=a=1&policy=p&cf=BOGUS&start=x&end=y")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus cf = %d", resp.StatusCode)
	}
}

func TestReportsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", t0, 990)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=spruce,site=sdsc", t0, 985)); err != nil {
		t.Fatal(err)
	}
	body, err := c.Reports("site=sdsc")
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	if strings.Count(s, "<stored") != 2 {
		t.Fatalf("reports: %s", s)
	}
	if !strings.Contains(s, `branch="tool=pathload,site=sdsc"`) {
		t.Fatalf("missing branch attr: %s", s)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	c := NewClient(ts.URL)
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "a=1", t0, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != 1 || st.CacheCount != 1 || st.CacheSize == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestControllerOverHTTPDepot(t *testing.T) {
	// Full remote topology: controller → HTTP → depot, as in Figure 3
	// where the depot lives inside a Tomcat server.
	ts, d := newTestServer(t)
	ctl := controller.New(NewClient(ts.URL), controller.Options{Mode: envelope.Attachment})
	r := report.New("probe.x", "1.0", "h", t0)
	r.Body = report.Branch("probe", "x", report.Leaf("ok", "1"))
	data, _ := report.Marshal(r)
	resp, err := ctl.Submit(branch.MustParse("probe=x"), "h", data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheSize == 0 || resp.Elapsed <= 0 {
		t.Fatalf("response = %+v", resp)
	}
	if d.Cache().Count() != 1 {
		t.Fatal("not stored through HTTP path")
	}
}

func TestPolicyXMLValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		"junk",
		`<archivalPolicy name="x" step="soon" history="1h"/>`,
		`<archivalPolicy name="x" step="1h" history="never"/>`,
		`<archivalPolicy name="x" prefix="notbranch" step="1h" history="1h"/>`,
		`<archivalPolicy name="x" step="1h" history="1h" heartbeat="bogus"/>`,
	} {
		resp, err := http.Post(ts.URL+"/policy", "text/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("accepted %q", body)
		}
	}
}

func TestSpecDistributionEndpoints(t *testing.T) {
	d := depot.New(nil)
	srv := NewServer(d)
	store := srv.EnableSpecs()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// Nothing stored yet.
	if _, _, err := c.FetchSpec("login1"); err == nil {
		t.Fatal("missing spec fetched")
	}
	specXML := []byte(`<specification resource="login1" workingDir="/home/inca">
  <series reporter="grid.version.globus" cron="0 * * * *" limit="1m0s" branch="probe=x,vo=tg"></series>
</specification>`)
	if err := c.UploadSpec(specXML); err != nil {
		t.Fatal(err)
	}
	data, gen, err := c.FetchSpec("login1")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation = %d", gen)
	}
	def, err := agent.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if def.Resource != "login1" || len(def.Series) != 1 || def.Series[0].Reporter != "grid.version.globus" {
		t.Fatalf("def = %+v", def)
	}
	// Re-upload bumps the generation.
	if err := c.UploadSpec(specXML); err != nil {
		t.Fatal(err)
	}
	if _, gen, _ = c.FetchSpec("login1"); gen != 2 {
		t.Fatalf("generation after update = %d", gen)
	}
	if got := store.Resources(); len(got) != 1 || got[0] != "login1" {
		t.Fatalf("resources = %v", got)
	}
	// Invalid upload rejected.
	if err := c.UploadSpec([]byte("junk")); err == nil {
		t.Fatal("junk spec accepted")
	}
	// Listing endpoint.
	resp, err := http.Get(ts.URL + "/spec")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "login1") {
		t.Fatalf("listing = %q", body)
	}
}

func TestSpecEndpointDisabled(t *testing.T) {
	ts, _ := newTestServer(t) // specs not enabled
	resp, err := http.Get(ts.URL + "/spec?resource=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAvailabilityEndpoint(t *testing.T) {
	d := depot.New(nil)
	if err := d.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("category=Grid,resource=r1")
	for i := 1; i <= 6; i++ {
		if err := d.ArchiveUpdate(id, consumer.AvailabilityPolicyName,
			t0.Add(time.Duration(i)*10*time.Minute), 100); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(d).Handler())
	defer ts.Close()

	u := ts.URL + "/availability?resource=r1&category=Grid&start=" +
		t0.Format(time.RFC3339) + "&end=" + t0.Add(2*time.Hour).Format(time.RFC3339)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "<table>") || !strings.Contains(string(body), "r1") {
		t.Fatalf("html page:\n%s", body)
	}
	// Text format.
	resp, err = http.Get(u + "&format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "100.0") {
		t.Fatalf("text page:\n%s", body)
	}
	// Missing params.
	resp, err = http.Get(ts.URL + "/availability")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-resource status = %d", resp.StatusCode)
	}
}

func TestGraphEndpointErrorsAndCFs(t *testing.T) {
	ts, d := newTestServer(t)
	c := NewClient(ts.URL)
	if err := c.UploadPolicy(depot.Policy{
		Name:    "p",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 24 * time.Hour, CFs: []rrd.CF{rrd.Average, rrd.Min, rrd.Max, rrd.Last}},
	}); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("m=1")
	for i := 1; i <= 5; i++ {
		if err := d.ArchiveUpdate(id, "p", t0.Add(time.Duration(i)*time.Hour), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every consolidation function parses and serves.
	for _, cf := range []rrd.CF{rrd.Average, rrd.Min, rrd.Max, rrd.Last} {
		if _, err := c.Graph("m=1", "p", cf, t0, t0.Add(6*time.Hour), "t", "y"); err != nil {
			t.Fatalf("%s: %v", cf, err)
		}
	}
	// Missing archive → 404 on /graph.
	if _, err := c.Graph("m=2", "p", rrd.Average, t0, t0.Add(time.Hour), "t", "y"); err == nil {
		t.Fatal("missing archive graphed")
	}
	// Bad params → 400.
	resp, err := http.Get(ts.URL + "/graph?branch=m=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
