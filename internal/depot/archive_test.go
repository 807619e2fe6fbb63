package depot

import (
	"bytes"
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
	d := New(NewStreamCache())
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

func TestConcurrentStoreSameBranch(t *testing.T) {
	// Many goroutines hammer branches that all share one archive set; run
	// under -race this exercises the shard locks and the policy snapshot.
	for _, opts := range []Options{
		{},
		{AsyncArchive: true, ArchiveWorkers: 4, ArchiveQueue: 8},
	} {
		d := NewWithOptions(NewStreamCache(), opts)
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
		d.Drain()
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
		d.Close()
	}
}

func TestConcurrentStoreDistinctBranches(t *testing.T) {
	for _, opts := range []Options{
		{},
		{AsyncArchive: true, ArchiveWorkers: 4, ArchiveQueue: 8},
	} {
		d := NewWithOptions(NewStreamCache(), opts)
		addPolicies(t, d, bandwidthPolicies("site=sdsc"))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
				storeSequence(t, d, id, 20)
			}(g)
		}
		wg.Wait()
		d.Drain()
		if got := len(d.ArchivedSeries()); got != 8*5 {
			t.Fatalf("archives = %d, want 40", got)
		}
		for g := 0; g < 8; g++ {
			id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
			if v := d.LatestValue(id, "bw-lower", rrd.Average); math.IsNaN(v) {
				t.Fatalf("branch %d: empty bw-lower archive", g)
			}
		}
		st := d.Stats()
		if opts.AsyncArchive {
			if st.Archive.Enqueued != 160 || st.Archive.Dropped != 0 {
				t.Fatalf("pipeline stats = %+v", st.Archive)
			}
		}
		if st.Archive.Matched != 160 {
			t.Fatalf("matched = %d, want 160", st.Archive.Matched)
		}
		d.Close()
	}
}

// TestSyncAsyncSeriesIdentical is the acceptance check that async mode is
// an optimization, not a semantics change: after Drain, every archived
// series matches the synchronous depot point for point.
func TestSyncAsyncSeriesIdentical(t *testing.T) {
	build := func(opts Options) *Depot {
		d := NewWithOptions(NewStreamCache(), opts)
		addPolicies(t, d, bandwidthPolicies("site=sdsc"))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
				for i := 0; i < 50; i++ {
					at := dt0.Add(time.Duration(i+1) * 10 * time.Minute)
					// A failure every 7th run varies the availability series.
					okRun := i%7 != 0
					if _, err := d.Store(id, twoStatReport(t, at, float64(900+i), okRun)); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		d.Drain()
		return d
	}
	sync := build(Options{})
	async := build(Options{AsyncArchive: true, ArchiveWorkers: 3, ArchiveQueue: 4})
	defer async.Close()

	sk, ak := sync.ArchivedSeries(), async.ArchivedSeries()
	if len(sk) != len(ak) || len(sk) != 4*5 {
		t.Fatalf("series: sync %d, async %d", len(sk), len(ak))
	}
	start, end := dt0, dt0.Add(10*time.Hour)
	for i, key := range sk {
		if ak[i] != key {
			t.Fatalf("series %d: sync %q, async %q", i, key, ak[i])
		}
		var id branch.ID
		var pol string
		if n := bytes.LastIndexByte([]byte(key), '|'); n >= 0 {
			id = branch.MustParse(key[:n])
			pol = key[n+1:]
		}
		for _, cf := range []rrd.CF{rrd.Average, rrd.Min, rrd.Max} {
			ss, serr := sync.FetchArchive(id, pol, cf, start, end)
			as, aerr := async.FetchArchive(id, pol, cf, start, end)
			if (serr == nil) != (aerr == nil) {
				t.Fatalf("%s/%v: fetch errors differ: %v vs %v", key, cf, serr, aerr)
			}
			if serr != nil {
				continue
			}
			if len(ss.Points) != len(as.Points) {
				t.Fatalf("%s/%v: %d vs %d points", key, cf, len(ss.Points), len(as.Points))
			}
			for j := range ss.Points {
				sv, av := ss.Points[j].Values[0], as.Points[j].Values[0]
				if !ss.Points[j].Time.Equal(as.Points[j].Time) ||
					(sv != av && !(math.IsNaN(sv) && math.IsNaN(av))) {
					t.Fatalf("%s/%v point %d: sync (%v,%g) async (%v,%g)",
						key, cf, j, ss.Points[j].Time, sv, as.Points[j].Time, av)
				}
			}
		}
	}
}

func TestAsyncDrainBeforeSnapshot(t *testing.T) {
	d := NewWithOptions(NewStreamCache(), Options{AsyncArchive: true, ArchiveWorkers: 2, ArchiveQueue: 4})
	defer d.Close()
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 30)
	// WriteSnapshot drains internally: the image must already contain the
	// archives for every acknowledged store.
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.ArchivedSeries()); got != 5 {
		t.Fatalf("restored archives = %d, want 5", got)
	}
	want := d.LatestValue(id, "bw-lower", rrd.Average)
	if got := re.LatestValue(id, "bw-lower", rrd.Average); got != want {
		t.Fatalf("restored LatestValue = %g, want %g", got, want)
	}
}

func TestAsyncPersistRestoreRoundTrip(t *testing.T) {
	d := NewWithOptions(NewStreamCache(), Options{AsyncArchive: true, ArchiveWorkers: 2, ArchiveQueue: 4})
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
			storeSequence(t, d, id, 25)
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Restore into an async depot and keep storing: the reloaded archives
	// must accept the continuation.
	re, err := ReadSnapshotOptions(bytes.NewReader(buf.Bytes()), nil, Options{AsyncArchive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.ArchivedSeries(), d.ArchivedSeries(); len(got) != len(want) {
		t.Fatalf("restored archives = %d, want %d", len(got), len(want))
	}
	id := branch.MustParse("tool=probe0,site=sdsc")
	at := dt0.Add(26 * 10 * time.Minute)
	if _, err := re.Store(id, twoStatReport(t, at, 1234, true)); err != nil {
		t.Fatal(err)
	}
	re.Drain()
	s, err := re.FetchArchive(id, "bw-lower", rrd.Average, dt0, at)
	if err != nil {
		t.Fatal(err)
	}
	var last float64 = math.NaN()
	for i := len(s.Points) - 1; i >= 0; i-- {
		if !math.IsNaN(s.Points[i].Values[0]) {
			last = s.Points[i].Values[0]
			break
		}
	}
	if math.IsNaN(last) {
		t.Fatal("no data after restore + store")
	}
	if v := re.LatestValue(id, "bw-lower", rrd.Average); v != last {
		t.Fatalf("LatestValue = %g, series tail = %g", v, last)
	}
}

func TestAsyncDropOnFull(t *testing.T) {
	// One worker, tiny queue, drop mode: flooding the depot must shed jobs
	// rather than block, and account for every shed job.
	d := NewWithOptions(NewStreamCache(), Options{
		AsyncArchive: true, ArchiveWorkers: 1, ArchiveQueue: 1, DropOnFull: true,
	})
	defer d.Close()
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 200)
	d.Drain()
	st := d.Stats().Archive
	if st.Enqueued+st.Dropped != 200 {
		t.Fatalf("enqueued %d + dropped %d != 200", st.Enqueued, st.Dropped)
	}
}

func TestDrainIsApplyBarrier(t *testing.T) {
	// Drain is the read-your-writes barrier: when it returns, every
	// acknowledged store must already be consolidated, not merely pulled
	// off the queue. Small queues and many workers maximize the window
	// between extraction and UpdateBatch.
	d := NewWithOptions(NewStreamCache(), Options{AsyncArchive: true, ArchiveWorkers: 4, ArchiveQueue: 2})
	defer d.Close()
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 50)
	d.Drain()
	if got := d.Stats().Archive.Applied; got != 50*5 {
		t.Fatalf("applied after Drain = %d, want %d", got, 50*5)
	}
}

func TestCloseConcurrentWithStores(t *testing.T) {
	// Close races in-flight stores: enqueues refused by the closing
	// pipeline must fall back to synchronous archival instead of sending
	// on a closed queue, and nothing acknowledged may be lost.
	d := NewWithOptions(NewStreamCache(), Options{AsyncArchive: true, ArchiveWorkers: 2, ArchiveQueue: 2})
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
			storeSequence(t, d, id, 50)
		}(g)
	}
	d.Close()
	wg.Wait()
	if got := d.Stats().Archive.Applied; got != 4*50*5 {
		t.Fatalf("applied = %d, want %d", got, 4*50*5)
	}
}

func TestLatestValueStaleAfterDay(t *testing.T) {
	d := New(NewStreamCache())
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
	d := New(NewStreamCache())
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
