package depot

import (
	"fmt"
	"math"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/envelope"
	"inca/internal/report"
	"inca/internal/rrd"
)

var dt0 = time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)

func reportWithValue(t *testing.T, at time.Time, value float64, ok bool) []byte {
	t.Helper()
	r := report.New("grid.network.pathload", "1.0", "h1", at)
	r.Body = report.Branch("metric", "bandwidth",
		report.Branch("statistic", "lowerBound",
			report.Leaff("value", "%.2f", value),
			report.Leaf("units", "Mbps")))
	if !ok {
		r.Fail("probe failed")
	}
	data, err := report.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDepotStoreAndStats(t *testing.T) {
	d := New(nil)
	id := branch.MustParse("tool=pathload,site=sdsc")
	rec, err := d.Store(id, reportWithValue(t, dt0, 990, true))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Added {
		t.Log("Added flag false on first insert") // Added set by store? check below
	}
	s := d.Stats()
	if s.Received != 1 || s.CacheCount != 1 || s.Bytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CacheSize <= 0 {
		t.Fatalf("cache size = %d", s.CacheSize)
	}
}

func TestDepotStoreEnvelopeTimings(t *testing.T) {
	d := New(nil)
	id := branch.MustParse("tool=pathload,site=sdsc")
	data, err := envelope.Encode(envelope.Body, id, reportWithValue(t, dt0, 990, true))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.StoreEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Unpack <= 0 || rec.Insert <= 0 {
		t.Fatalf("timings not recorded: %+v", rec)
	}
	if !rec.Branch.Equal(id) {
		t.Fatalf("branch = %s", rec.Branch)
	}
	if rec.ReportSize == 0 || rec.CacheSize == 0 {
		t.Fatalf("sizes not recorded: %+v", rec)
	}
	if _, err := d.StoreEnvelope([]byte("junk")); err == nil {
		t.Fatal("junk envelope accepted")
	}
}

func TestPolicyValidation(t *testing.T) {
	d := New(nil)
	good := Policy{Name: "bw", Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 24 * time.Hour}}
	if err := d.AddPolicy(good); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPolicy(good); err == nil {
		t.Fatal("duplicate policy accepted")
	}
	if err := d.AddPolicy(Policy{Archive: good.Archive}); err == nil {
		t.Fatal("unnamed policy accepted")
	}
	if err := d.AddPolicy(Policy{Name: "x"}); err == nil {
		t.Fatal("zero-step policy accepted")
	}
	if len(d.Policies()) != 1 {
		t.Fatalf("policies = %d", len(d.Policies()))
	}
}

func TestArchivingThroughPolicy(t *testing.T) {
	d := New(nil)
	err := d.AddPolicy(Policy{
		Name:    "bandwidth",
		Prefix:  branch.MustParse("site=sdsc"),
		Path:    "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 7 * 24 * time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("tool=pathload,site=sdsc")
	for i := 1; i <= 24; i++ {
		at := dt0.Add(time.Duration(i) * time.Hour)
		if _, err := d.Store(id, reportWithValue(t, at, 900+float64(i), true)); err != nil {
			t.Fatal(err)
		}
	}
	series, err := d.FetchArchive(id, "bandwidth", rrd.Average, dt0, dt0.Add(25*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) < 20 {
		t.Fatalf("archived points = %d", len(series.Points))
	}
	known := 0
	for _, p := range series.Points {
		if !math.IsNaN(p.Values[0]) {
			known++
			if p.Values[0] < 900 || p.Values[0] > 925 {
				t.Fatalf("archived value %g out of range", p.Values[0])
			}
		}
	}
	if known < 20 {
		t.Fatalf("known points = %d", known)
	}
	if v := d.LatestValue(id, "bandwidth", rrd.Average); math.IsNaN(v) || v < 900 {
		t.Fatalf("LatestValue = %g", v)
	}
}

func TestAvailabilityPolicyWithEmptyPath(t *testing.T) {
	d := New(nil)
	if err := d.AddPolicy(Policy{
		Name:    "availability",
		Prefix:  branch.ID{},
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 48 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("svc=gram,site=sdsc")
	// Alternate success and failure.
	for i := 1; i <= 10; i++ {
		at := dt0.Add(time.Duration(i) * time.Hour)
		if _, err := d.Store(id, reportWithValue(t, at, 1, i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := d.FetchArchive(id, "availability", rrd.Average, dt0, dt0.Add(11*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	saw0, saw1 := false, false
	for _, p := range s.Points {
		switch {
		case p.Values[0] == 0:
			saw0 = true
		case p.Values[0] == 1:
			saw1 = true
		}
	}
	if !saw0 || !saw1 {
		t.Fatalf("availability series missing 0s or 1s: %v", s.Points)
	}
}

func TestPolicyPrefixFiltering(t *testing.T) {
	d := New(nil)
	if err := d.AddPolicy(Policy{
		Name:    "sdsc-only",
		Prefix:  branch.MustParse("site=sdsc"),
		Path:    "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 24 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	other := branch.MustParse("tool=pathload,site=ncsa")
	if _, err := d.Store(other, reportWithValue(t, dt0.Add(time.Hour), 1, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FetchArchive(other, "sdsc-only", rrd.Average, dt0, dt0.Add(2*time.Hour)); err == nil {
		t.Fatal("policy applied outside its prefix")
	}
	if len(d.ArchivedSeries()) != 0 {
		t.Fatalf("archives = %v", d.ArchivedSeries())
	}
}

func TestNonReportXMLIsCachedNotArchived(t *testing.T) {
	d := New(nil)
	if err := d.AddPolicy(Policy{
		Name:    "p",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 24 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("x=1")
	if _, err := d.Store(id, []byte("<foreign><data>1</data></foreign>")); err != nil {
		t.Fatal(err)
	}
	if d.Cache().Count() != 1 {
		t.Fatal("foreign XML not cached")
	}
	if len(d.ArchivedSeries()) != 0 {
		t.Fatal("foreign XML archived")
	}
}

func TestArchiveUpdateDirect(t *testing.T) {
	d := New(nil)
	if err := d.AddPolicy(Policy{
		Name:    "summary",
		Archive: rrd.ArchivalPolicy{Step: 10 * time.Minute, History: 7 * 24 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("category=Grid,resource=r1")
	for i := 1; i <= 6; i++ {
		if err := d.ArchiveUpdate(id, "summary", dt0.Add(time.Duration(i)*10*time.Minute), 96.0); err != nil {
			t.Fatal(err)
		}
	}
	s, err := d.FetchArchive(id, "summary", rrd.Average, dt0, dt0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) == 0 {
		t.Fatal("no points")
	}
	if err := d.ArchiveUpdate(id, "ghost", dt0, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestLatestValueMissing(t *testing.T) {
	d := New(nil)
	if !math.IsNaN(d.LatestValue(branch.MustParse("a=1"), "none", rrd.Average)) {
		t.Fatal("missing archive returned a value")
	}
}

func TestReceiptTotal(t *testing.T) {
	r := Receipt{Unpack: time.Second, Insert: 2 * time.Second, Archive: time.Second}
	if r.Total() != 4*time.Second {
		t.Fatalf("Total = %v", r.Total())
	}
}

func TestManyBranchesStoreQuery(t *testing.T) {
	d := New(nil)
	for site := 0; site < 5; site++ {
		for res := 0; res < 4; res++ {
			for probe := 0; probe < 5; probe++ {
				id := branch.MustParse(fmt.Sprintf("probe=p%d,resource=r%d,site=s%d", probe, res, site))
				if _, err := d.Store(id, reportWithValue(t, dt0.Add(time.Hour), 1, true)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if d.Cache().Count() != 100 {
		t.Fatalf("count = %d", d.Cache().Count())
	}
	rs, err := d.Cache().Reports(branch.MustParse("site=s2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 20 {
		t.Fatalf("site query = %d, want 20", len(rs))
	}
}
