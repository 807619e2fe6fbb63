package depot

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
	"inca/internal/rrd"
)

// bandwidthPolicies returns a realistic policy mix: two value paths at two
// granularities each, plus an availability (success) policy — five archives
// per matching branch.
func bandwidthPolicies(prefix string) []Policy {
	pol := func(name, path string, step time.Duration) Policy {
		return Policy{
			Name:   name,
			Prefix: branch.MustParse(prefix),
			Path:   path,
			Archive: rrd.ArchivalPolicy{
				Step: step, Granularity: 2, History: 14 * 24 * time.Hour,
			},
		}
	}
	const lower = "value,statistic=lowerBound,metric=bandwidth"
	const upper = "value,statistic=upperBound,metric=bandwidth"
	return []Policy{
		pol("bw-lower", lower, 10*time.Minute),
		pol("bw-lower-hourly", lower, time.Hour),
		pol("bw-upper", upper, 10*time.Minute),
		pol("bw-upper-hourly", upper, time.Hour),
		pol("availability", "", 10*time.Minute),
	}
}

func addPolicies(t *testing.T, d *Depot, pols []Policy) {
	t.Helper()
	for _, p := range pols {
		if err := d.AddPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
}

// twoStatReport builds a report carrying both bandwidth statistics, so all
// five bandwidthPolicies extract a value.
func twoStatReport(t *testing.T, at time.Time, value float64, ok bool) []byte {
	t.Helper()
	r := report.New("grid.network.pathload", "1.0", "h1", at)
	r.Body = report.Branch("metric", "bandwidth",
		report.Branch("statistic", "lowerBound",
			report.Leaff("value", "%.2f", value),
			report.Leaf("units", "Mbps")),
		report.Branch("statistic", "upperBound",
			report.Leaff("value", "%.2f", value+10),
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

// storeSequence stores n reports with strictly increasing timestamps under
// one branch.
func storeSequence(t *testing.T, d *Depot, id branch.ID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		at := dt0.Add(time.Duration(i+1) * 10 * time.Minute)
		if _, err := d.Store(id, twoStatReport(t, at, float64(900+i), true)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPolicyIndexMatchesLinearScan(t *testing.T) {
	d := New(nil)
	addPolicies(t, d, bandwidthPolicies("tool=pathload,site=sdsc"))
	addPolicies(t, d, []Policy{
		{Name: "other-site", Prefix: branch.MustParse("site=ncsa"), Path: "x",
			Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour}},
		{Name: "everything", Path: "",
			Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour}},
		{Name: "manual", Prefix: branch.MustParse("site=sdsc"), ManualOnly: true,
			Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour}},
	})
	set := d.policies.Load()
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"tool=pathload,site=sdsc", 6}, // 5 bandwidth + rootless
		{"run=1,tool=pathload,site=sdsc", 6},
		{"tool=other,site=sdsc", 1}, // rootless only
		{"tool=pathload,site=ncsa", 2},
		{"site=lbl", 1},
		{"", 1},
	} {
		id := branch.MustParse(tc.id)
		got := set.match(id)
		if len(got) != tc.want {
			t.Errorf("match(%q) returned %d policies, want %d", tc.id, len(got), tc.want)
		}
		// The index must agree with the brute-force definition.
		var linear []string
		for _, p := range d.Policies() {
			if !p.ManualOnly && id.HasSuffix(p.Prefix) {
				linear = append(linear, p.Name)
			}
		}
		if len(linear) != len(got) {
			t.Errorf("match(%q): index %d, linear scan %d", tc.id, len(got), len(linear))
		}
	}
}

// bothEngines runs fn against a fresh memory depot and a fresh disk depot,
// as "memory" and "disk" subtests.
func bothEngines(t *testing.T, fn func(t *testing.T, d *Depot)) {
	t.Run("memory", func(t *testing.T) {
		fn(t, New(nil))
	})
	t.Run("disk", func(t *testing.T) {
		d := diskDepot(t, t.TempDir(), DiskOptions{})
		defer d.Close()
		fn(t, d)
	})
}

func TestConcurrentStoreSameBranch(t *testing.T) {
	// Many goroutines hammer branches that all share one archive set; run
	// under -race this exercises the shard locks and the policy snapshot.
	bothEngines(t, func(t *testing.T, d *Depot) {
		addPolicies(t, d, bandwidthPolicies("site=sdsc"))
		id := branch.MustParse("tool=pathload,site=sdsc")
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					at := dt0.Add(time.Duration(g*25+i+1) * 10 * time.Minute)
					if _, err := d.Store(id, twoStatReport(t, at, float64(i), true)); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got := d.Stats().Received; got != 200 {
			t.Fatalf("received = %d, want 200", got)
		}
		// All five policies matched every store; timestamps collide across
		// goroutines, so only a subset consolidates — but every archive
		// must exist and hold data.
		if got := len(d.ArchivedSeries()); got != 5 {
			t.Fatalf("archives = %d, want 5 (%v)", got, d.ArchivedSeries())
		}
		if v := d.LatestValue(id, "availability", rrd.Average); math.IsNaN(v) {
			t.Fatal("availability archive is empty")
		}
	})
}

// TestConcurrentStoreDistinctBranches holds the archive path's invariant on
// both engines: a sample is readable the moment its Store returns, with no
// barrier in between, and applied == matched x resolved policies.
func TestConcurrentStoreDistinctBranches(t *testing.T) {
	bothEngines(t, func(t *testing.T, d *Depot) {
		addPolicies(t, d, bandwidthPolicies("site=sdsc"))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
				for i := 0; i < 20; i++ {
					at := dt0.Add(time.Duration(i+1) * 10 * time.Minute)
					if _, err := d.Store(id, twoStatReport(t, at, float64(900+i), true)); err != nil {
						t.Error(err)
						return
					}
					// This goroutine is the branch's only writer, so the
					// series holds exactly the samples stored so far.
					if n, ok := d.ArchiveSeriesGeneration(id, "bw-lower"); !ok || n != uint64(i+1) {
						t.Errorf("branch %d: %d samples readable after store %d (archive exists: %v)", g, n, i+1, ok)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got := len(d.ArchivedSeries()); got != 8*5 {
			t.Fatalf("archives = %d, want 40", got)
		}
		for g := 0; g < 8; g++ {
			id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
			if v := d.LatestValue(id, "bw-lower", rrd.Average); math.IsNaN(v) {
				t.Fatalf("branch %d: empty bw-lower archive", g)
			}
		}
		st := d.Stats().Archive
		if st.Matched != 160 || st.Applied != 160*5 {
			t.Fatalf("matched = %d, applied = %d, want 160 and 800", st.Matched, st.Applied)
		}
	})
}

func TestLatestValueStaleAfterDay(t *testing.T) {
	d := New(nil)
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 6)
	if v := d.LatestValue(id, "bw-lower", rrd.Average); math.IsNaN(v) {
		t.Fatal("no latest value after stores")
	}
	// A resource that goes quiet: an update 25 hours on advances the
	// archive clock without consolidating any known point, leaving the
	// last known value outside the 24-hour window. LatestValue must read
	// unknown again, as the old fetch-and-scan did.
	at := dt0.Add(6*10*time.Minute + 25*time.Hour)
	if err := d.ArchiveUpdate(id, "bw-lower", at, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if v := d.LatestValue(id, "bw-lower", rrd.Average); !math.IsNaN(v) {
		t.Fatalf("LatestValue for idle resource = %g, want NaN", v)
	}
}

func TestArchiveGenerationAdvances(t *testing.T) {
	d := New(nil)
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	g0 := d.ArchiveGeneration()
	storeSequence(t, d, id, 3)
	g1 := d.ArchiveGeneration()
	if g1 <= g0 {
		t.Fatalf("generation did not advance: %d -> %d", g0, g1)
	}
	// A store that archives nothing (no matching policy) leaves it alone.
	if _, err := d.Store(branch.MustParse("tool=x,site=ncsa"), reportWithValue(t, dt0.Add(time.Hour), 1, true)); err != nil {
		t.Fatal(err)
	}
	if d.ArchiveGeneration() != g1 {
		t.Fatal("generation advanced without an archive write")
	}
	if err := d.ArchiveUpdate(id, "bw-lower", dt0.Add(24*time.Hour), 5); err != nil {
		t.Fatal(err)
	}
	if d.ArchiveGeneration() <= g1 {
		t.Fatal("ArchiveUpdate did not advance the generation")
	}
}
