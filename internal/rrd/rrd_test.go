package rrd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)

func gaugeDS(name string) DS {
	return DS{Name: name, Type: Gauge, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: math.NaN()}
}

func newGaugeDB(t *testing.T, step time.Duration, rras ...RRA) *DB {
	t.Helper()
	if len(rras) == 0 {
		rras = []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 100}}
	}
	db, err := New(t0, step, []DS{gaugeDS("v")}, rras)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewValidation(t *testing.T) {
	ds := []DS{gaugeDS("v")}
	rra := []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}}
	cases := []struct {
		name string
		fn   func() (*DB, error)
	}{
		{"zero step", func() (*DB, error) { return New(t0, 0, ds, rra) }},
		{"no ds", func() (*DB, error) { return New(t0, time.Minute, nil, rra) }},
		{"no rra", func() (*DB, error) { return New(t0, time.Minute, ds, nil) }},
		{"unnamed ds", func() (*DB, error) {
			return New(t0, time.Minute, []DS{{Type: Gauge, Heartbeat: time.Minute}}, rra)
		}},
		{"dup ds", func() (*DB, error) { return New(t0, time.Minute, []DS{gaugeDS("v"), gaugeDS("v")}, rra) }},
		{"no heartbeat", func() (*DB, error) {
			return New(t0, time.Minute, []DS{{Name: "v", Type: Gauge}}, rra)
		}},
		{"bad xff", func() (*DB, error) {
			return New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 1.0, Steps: 1, Rows: 10}})
		}},
		{"zero rows", func() (*DB, error) {
			return New(t0, time.Minute, ds, []RRA{{CF: Average, Steps: 1}})
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestUpdateMonotonicity(t *testing.T) {
	db := newGaugeDB(t, time.Minute)
	if err := db.Update(t0.Add(time.Minute), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0.Add(time.Minute), 2); err == nil {
		t.Fatal("same-instant update accepted")
	}
	if err := db.Update(t0, 2); err == nil {
		t.Fatal("backwards update accepted")
	}
	if err := db.Update(t0.Add(2*time.Minute), 1, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if db.Updates() != 1 {
		t.Fatalf("Updates = %d", db.Updates())
	}
}

func TestGaugeAverageExact(t *testing.T) {
	db := newGaugeDB(t, time.Minute)
	// Constant value 5 sampled exactly on step boundaries.
	for i := 1; i <= 10; i++ {
		if err := db.Update(t0.Add(time.Duration(i)*time.Minute), 5); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.Fetch(Average, t0, t0.Add(10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 10 {
		t.Fatalf("points = %d, want 10", len(s.Points))
	}
	for _, p := range s.Points {
		if math.Abs(p.Values[0]-5) > 1e-9 {
			t.Fatalf("point %v = %g, want 5", p.Time, p.Values[0])
		}
	}
}

func TestGaugeTimeWeightedWithinStep(t *testing.T) {
	db := newGaugeDB(t, time.Minute)
	// Value 0 for the first 30 s of the window, 10 for the last 30 s →
	// average 5 for the PDP ending at t0+1m.
	if err := db.Update(t0.Add(30*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0.Add(60*time.Second), 10); err != nil {
		t.Fatal(err)
	}
	s, err := db.Fetch(Average, t0, t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if got := s.Points[0].Values[0]; math.Abs(got-5) > 1e-9 {
		t.Fatalf("PDP = %g, want 5", got)
	}
}

func TestCounterRate(t *testing.T) {
	ds := []DS{{Name: "pkts", Type: Counter, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: math.NaN()}}
	db, err := New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}})
	if err != nil {
		t.Fatal(err)
	}
	// First update establishes the baseline (rate unknown), then +600 per
	// minute → 10/s.
	if err := db.Update(t0.Add(time.Minute), 1000); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0.Add(2*time.Minute), 1600); err != nil {
		t.Fatal(err)
	}
	s, err := db.Fetch(Average, t0, t0.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	last := s.Points[len(s.Points)-1]
	if math.Abs(last.Values[0]-10) > 1e-9 {
		t.Fatalf("counter rate = %g, want 10", last.Values[0])
	}
	// First PDP must be unknown (no baseline).
	if !math.IsNaN(s.Points[0].Values[0]) {
		t.Fatalf("first counter PDP = %g, want NaN", s.Points[0].Values[0])
	}
}

func TestCounterResetYieldsUnknown(t *testing.T) {
	ds := []DS{{Name: "c", Type: Counter, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: math.NaN()}}
	db, _ := New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}})
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Update(t0.Add(1*time.Minute), 500))
	must(db.Update(t0.Add(2*time.Minute), 100)) // reset
	s, _ := db.Fetch(Average, t0.Add(90*time.Second), t0.Add(2*time.Minute))
	if !math.IsNaN(s.Points[len(s.Points)-1].Values[0]) {
		t.Fatal("counter reset did not yield unknown")
	}
}

func TestDeriveAllowsNegative(t *testing.T) {
	ds := []DS{{Name: "d", Type: Derive, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: math.NaN()}}
	db, _ := New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}})
	if err := db.Update(t0.Add(1*time.Minute), 600); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0.Add(2*time.Minute), 0); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Fetch(Average, t0.Add(90*time.Second), t0.Add(2*time.Minute))
	if got := s.Points[len(s.Points)-1].Values[0]; math.Abs(got-(-10)) > 1e-9 {
		t.Fatalf("derive rate = %g, want -10", got)
	}
}

func TestAbsolute(t *testing.T) {
	ds := []DS{{Name: "a", Type: Absolute, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: math.NaN()}}
	db, _ := New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}})
	if err := db.Update(t0.Add(time.Minute), 600); err != nil { // 600 events in 60 s
		t.Fatal(err)
	}
	s, _ := db.Fetch(Average, t0, t0.Add(time.Minute))
	if got := s.Points[0].Values[0]; math.Abs(got-10) > 1e-9 {
		t.Fatalf("absolute rate = %g, want 10", got)
	}
}

func TestHeartbeatMarksGapUnknown(t *testing.T) {
	db := newGaugeDB(t, time.Minute)
	if err := db.Update(t0.Add(time.Minute), 5); err != nil {
		t.Fatal(err)
	}
	// 30-minute silence exceeds the 10-minute heartbeat.
	if err := db.Update(t0.Add(31*time.Minute), 5); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Fetch(Average, t0.Add(2*time.Minute), t0.Add(31*time.Minute))
	nan := 0
	for _, p := range s.Points {
		if math.IsNaN(p.Values[0]) {
			nan++
		}
	}
	if nan != len(s.Points) {
		t.Fatalf("%d of %d gap points unknown; want all", nan, len(s.Points))
	}
}

func TestMinMaxClamp(t *testing.T) {
	ds := []DS{{Name: "pct", Type: Gauge, Heartbeat: 10 * time.Minute, Min: 0, Max: 100}}
	db, _ := New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}})
	if err := db.Update(t0.Add(time.Minute), 150); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Fetch(Average, t0, t0.Add(time.Minute))
	if !math.IsNaN(s.Points[0].Values[0]) {
		t.Fatal("out-of-range gauge value not marked unknown")
	}
}

func TestConsolidationFunctions(t *testing.T) {
	rras := []RRA{
		{CF: Average, XFF: 0.5, Steps: 5, Rows: 10},
		{CF: Min, XFF: 0.5, Steps: 5, Rows: 10},
		{CF: Max, XFF: 0.5, Steps: 5, Rows: 10},
		{CF: Last, XFF: 0.5, Steps: 5, Rows: 10},
	}
	db := newGaugeDB(t, time.Minute, rras...)
	vals := []float64{1, 9, 3, 7, 5}
	for i, v := range vals {
		if err := db.Update(t0.Add(time.Duration(i+1)*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	end := t0.Add(5 * time.Minute)
	check := func(cf CF, want float64) {
		s, err := db.Fetch(cf, t0, end)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Points) != 1 {
			t.Fatalf("%s: points = %d", cf, len(s.Points))
		}
		if got := s.Points[0].Values[0]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s = %g, want %g", cf, got, want)
		}
	}
	check(Average, 5)
	check(Min, 1)
	check(Max, 9)
	check(Last, 5)
}

func TestXFFThreshold(t *testing.T) {
	// 5-step consolidation, xff 0.5: 2 unknown of 5 is fine, 3 is not.
	rra := RRA{CF: Average, XFF: 0.5, Steps: 5, Rows: 10}
	ds := []DS{{Name: "v", Type: Gauge, Heartbeat: 90 * time.Second, Min: math.NaN(), Max: math.NaN()}}

	run := func(updateMinutes []int) float64 {
		db, err := New(t0, time.Minute, ds, []RRA{rra})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for _, m := range updateMinutes {
			// Hop in 1-minute updates; skipped minutes exceed nothing (the
			// heartbeat is 90 s), so emulate unknowns with explicit NaN.
			for i := prev + 1; i <= m; i++ {
				v := 4.0
				if err := db.Update(t0.Add(time.Duration(i)*time.Minute), v); err != nil {
					t.Fatal(err)
				}
			}
			prev = m
		}
		s, _ := db.Fetch(Average, t0, t0.Add(5*time.Minute))
		if len(s.Points) == 0 {
			t.Fatal("no consolidated point")
		}
		return s.Points[0].Values[0]
	}
	// All five known.
	if v := run([]int{5}); math.Abs(v-4) > 1e-9 {
		t.Fatalf("full window = %g", v)
	}

	// Now with NaN injections: 3 unknown of 5 → NaN.
	db, _ := New(t0, time.Minute, ds, []RRA{rra})
	seq := []float64{4, math.NaN(), math.NaN(), math.NaN(), 4}
	for i, v := range seq {
		if err := db.Update(t0.Add(time.Duration(i+1)*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := db.Fetch(Average, t0, t0.Add(5*time.Minute))
	if !math.IsNaN(s.Points[0].Values[0]) {
		t.Fatalf("3/5 unknown consolidated to %g, want NaN", s.Points[0].Values[0])
	}

	// 2 unknown of 5 → known average of the 3 known points.
	db, _ = New(t0, time.Minute, ds, []RRA{rra})
	seq = []float64{4, math.NaN(), 6, math.NaN(), 5}
	for i, v := range seq {
		if err := db.Update(t0.Add(time.Duration(i+1)*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	s, _ = db.Fetch(Average, t0, t0.Add(5*time.Minute))
	if got := s.Points[0].Values[0]; math.Abs(got-5) > 1e-9 {
		t.Fatalf("2/5 unknown average = %g, want 5", got)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	db := newGaugeDB(t, time.Minute, RRA{CF: Average, XFF: 0.5, Steps: 1, Rows: 5})
	for i := 1; i <= 12; i++ {
		if err := db.Update(t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := db.Fetch(Average, t0, t0.Add(12*time.Minute))
	if len(s.Points) != 5 {
		t.Fatalf("points = %d, want 5 (ring capacity)", len(s.Points))
	}
	// The surviving rows are the newest five PDPs: minutes 8..12.
	for i, p := range s.Points {
		want := float64(8 + i)
		if math.Abs(p.Values[0]-want) > 1e-9 {
			t.Fatalf("point %d = %g, want %g", i, p.Values[0], want)
		}
		if !p.Time.Equal(t0.Add(time.Duration(8+i) * time.Minute)) {
			t.Fatalf("point %d time = %v", i, p.Time)
		}
	}
}

func TestFetchSelectsFinestCoveringRRA(t *testing.T) {
	db := newGaugeDB(t, time.Minute,
		RRA{CF: Average, XFF: 0.5, Steps: 1, Rows: 10},  // 10 min retention
		RRA{CF: Average, XFF: 0.5, Steps: 10, Rows: 50}, // 500 min retention
	)
	for i := 1; i <= 120; i++ {
		if err := db.Update(t0.Add(time.Duration(i)*time.Minute), float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	// Recent range → fine archive.
	s, _ := db.Fetch(Average, t0.Add(115*time.Minute), t0.Add(120*time.Minute))
	if s.Resolution != time.Minute {
		t.Fatalf("recent fetch resolution = %v, want 1m", s.Resolution)
	}
	// Old range → coarse archive.
	s, _ = db.Fetch(Average, t0.Add(10*time.Minute), t0.Add(120*time.Minute))
	if s.Resolution != 10*time.Minute {
		t.Fatalf("old fetch resolution = %v, want 10m", s.Resolution)
	}
}

func TestFetchErrors(t *testing.T) {
	db := newGaugeDB(t, time.Minute)
	if _, err := db.Fetch(Max, t0, t0.Add(time.Hour)); err == nil {
		t.Fatal("fetch with absent CF accepted")
	}
	if _, err := db.Fetch(Average, t0.Add(time.Hour), t0); err == nil {
		t.Fatal("inverted range accepted")
	}
	s, err := db.Fetch(Average, t0, t0.Add(time.Hour))
	if err != nil || len(s.Points) != 0 {
		t.Fatalf("empty db fetch = %v, %d points", err, len(s.Points))
	}
}

func TestSeriesValues(t *testing.T) {
	db := newGaugeDB(t, time.Minute)
	if err := db.Update(t0.Add(time.Minute), 42); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Fetch(Average, t0, t0.Add(time.Minute))
	vals, err := s.Values("v")
	if err != nil || len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("Values = %v, %v", vals, err)
	}
	if _, err := s.Values("ghost"); err == nil {
		t.Fatal("unknown DS accepted")
	}
}

func TestAverageConservationProperty(t *testing.T) {
	// For boundary-aligned gauge updates, the mean of all consolidated
	// points equals the mean of the inputs (no loss in consolidation).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		db, err := New(t0, time.Minute, []DS{gaugeDS("v")},
			[]RRA{{CF: Average, XFF: 0, Steps: 1, Rows: 100}})
		if err != nil {
			return false
		}
		var sum float64
		for i := 1; i <= n; i++ {
			v := r.Float64() * 100
			sum += v
			if err := db.Update(t0.Add(time.Duration(i)*time.Minute), v); err != nil {
				return false
			}
		}
		s, err := db.Fetch(Average, t0, t0.Add(time.Duration(n)*time.Minute))
		if err != nil || len(s.Points) != n {
			return false
		}
		var got float64
		for _, p := range s.Points {
			got += p.Values[0]
		}
		return math.Abs(got-sum) < 1e-6*math.Max(1, math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMinLEAvgLEMaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rras := []RRA{
			{CF: Average, XFF: 0, Steps: 5, Rows: 50},
			{CF: Min, XFF: 0, Steps: 5, Rows: 50},
			{CF: Max, XFF: 0, Steps: 5, Rows: 50},
		}
		db, err := New(t0, time.Minute, []DS{gaugeDS("v")}, rras)
		if err != nil {
			return false
		}
		n := 25 + r.Intn(50)
		for i := 1; i <= n; i++ {
			if err := db.Update(t0.Add(time.Duration(i)*time.Minute), r.Float64()*50); err != nil {
				return false
			}
		}
		end := t0.Add(time.Duration(n) * time.Minute)
		avg, _ := db.Fetch(Average, t0, end)
		mn, _ := db.Fetch(Min, t0, end)
		mx, _ := db.Fetch(Max, t0, end)
		if len(avg.Points) != len(mn.Points) || len(avg.Points) != len(mx.Points) {
			return false
		}
		for i := range avg.Points {
			a, lo, hi := avg.Points[i].Values[0], mn.Points[i].Values[0], mx.Points[i].Values[0]
			if math.IsNaN(a) || math.IsNaN(lo) || math.IsNaN(hi) {
				continue
			}
			if lo > a+1e-9 || a > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFromPolicy(t *testing.T) {
	p := ArchivalPolicy{Step: 10 * time.Minute, Granularity: 5, History: 24 * time.Hour}
	db, err := NewFromPolicy(t0, "availability", p)
	if err != nil {
		t.Fatal(err)
	}
	if db.Step() != 10*time.Minute {
		t.Fatalf("step = %v", db.Step())
	}
	// Rows: 24h / (10m*5) ≈ 28.
	for i := 1; i <= 60; i++ {
		if err := db.Update(t0.Add(time.Duration(i)*10*time.Minute), 100); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.Fetch(Average, t0, t0.Add(10*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if s.Resolution != 50*time.Minute {
		t.Fatalf("resolution = %v, want 50m", s.Resolution)
	}
	if len(s.Points) == 0 {
		t.Fatal("no points archived")
	}
}

func TestNewFromPolicyValidation(t *testing.T) {
	if _, err := NewFromPolicy(t0, "x", ArchivalPolicy{Granularity: 1, History: time.Hour}); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := NewFromPolicy(t0, "x", ArchivalPolicy{Step: time.Minute}); err == nil {
		t.Fatal("zero history accepted")
	}
	// Defaults fill in granularity, heartbeat, CFs.
	db, err := NewFromPolicy(t0, "x", ArchivalPolicy{Step: time.Minute, History: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if db == nil {
		t.Fatal("nil db")
	}
}

// TestPolicyLayoutBounded: a policy needing more than MaxRows rows, or
// whose row overflows a Duration, is refused, and one at MaxRows rows is
// laid out; none of them allocates a row.
func TestPolicyLayoutBounded(t *testing.T) {
	for _, p := range []ArchivalPolicy{
		{Step: time.Nanosecond, History: time.Hour},
		{Step: time.Nanosecond, History: (MaxRows + 1) * time.Nanosecond},
		{Step: time.Hour, Granularity: 1 << 40, History: time.Hour},
		{Step: math.MaxInt64, Granularity: 2, History: time.Hour},
	} {
		if _, _, _, err := PolicyLayout("v", p); err == nil {
			t.Errorf("PolicyLayout(%+v) accepted", p)
		}
	}
	_, _, rras, err := PolicyLayout("v", ArchivalPolicy{Step: time.Nanosecond, History: MaxRows * time.Nanosecond})
	if err != nil || rras[0].Rows != MaxRows {
		t.Fatalf("a policy of MaxRows rows: %v, %v", rras, err)
	}
}

func TestCFAndDSTypeStrings(t *testing.T) {
	if Average.String() != "AVERAGE" || Min.String() != "MIN" || Max.String() != "MAX" || Last.String() != "LAST" {
		t.Fatal("CF names wrong")
	}
	if CF(99).String() == "" || DSType(99).String() == "" {
		t.Fatal("unknown enum renders empty")
	}
	if Gauge.String() != "GAUGE" || Counter.String() != "COUNTER" || Derive.String() != "DERIVE" || Absolute.String() != "ABSOLUTE" {
		t.Fatal("DSType names wrong")
	}
}

func TestMultiDSIndependentUnknowns(t *testing.T) {
	ds := []DS{gaugeDS("a"), gaugeDS("b")}
	db, err := New(t0, time.Minute, ds, []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0.Add(time.Minute), math.NaN(), 7); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Fetch(Average, t0, t0.Add(time.Minute))
	if !math.IsNaN(s.Points[0].Values[0]) {
		t.Fatal("NaN input did not stay unknown for DS a")
	}
	if got := s.Points[0].Values[1]; math.Abs(got-7) > 1e-9 {
		t.Fatalf("DS b = %g, want 7", got)
	}
}

func TestLastValueTracksNewestKnown(t *testing.T) {
	db, err := NewFromPolicy(t0, "v", ArchivalPolicy{Step: time.Hour, History: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(db.LastValue(Average)) {
		t.Fatal("empty archive returned a value")
	}
	for i := 1; i <= 10; i++ {
		if err := db.Update(t0.Add(time.Duration(i)*time.Hour), float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// An update exactly on the step boundary completes its window, so the
	// newest consolidated row holds the 10th sample.
	if v := db.LastValue(Average); v != 110 {
		t.Fatalf("LastValue = %g, want 110", v)
	}
	if !math.IsNaN(db.LastValue(Max)) {
		t.Fatal("CF without an archive returned a value")
	}
	if !math.IsNaN(db.LastValueDS(Average, 5)) {
		t.Fatal("out-of-range source returned a value")
	}
	// A gap beyond the heartbeat consolidates a run of unknown rows;
	// LastValue still reports the last known one.
	if err := db.Update(t0.Add(20*time.Hour), math.NaN()); err != nil {
		t.Fatal(err)
	}
	if v := db.LastValue(Average); v != 110 {
		t.Fatalf("LastValue after gap = %g, want 110", v)
	}
	// New data after the gap takes over.
	if err := db.Update(t0.Add(21*time.Hour), 200); err != nil {
		t.Fatal(err)
	}
	if v := db.LastValue(Average); v != 200 {
		t.Fatalf("LastValue after recovery = %g, want 200", v)
	}
}

func TestLastValueAgreesWithFetchScan(t *testing.T) {
	// LastValue must agree with the old implementation: fetch a trailing
	// window and scan backwards for the last known value.
	db, err := NewFromPolicy(t0, "v", ArchivalPolicy{Step: 10 * time.Minute, Granularity: 2, History: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 37; i++ {
		v := float64(i)
		if i%5 == 0 {
			v = math.NaN()
		}
		if err := db.Update(t0.Add(time.Duration(i)*10*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	last := db.Last()
	s, err := db.Fetch(Average, last.Add(-24*time.Hour), last)
	if err != nil {
		t.Fatal(err)
	}
	want := math.NaN()
	for i := len(s.Points) - 1; i >= 0; i-- {
		if !math.IsNaN(s.Points[i].Values[0]) {
			want = s.Points[i].Values[0]
			break
		}
	}
	got := db.LastValue(Average)
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("LastValue = %g, scan = %g", got, want)
	}
}
