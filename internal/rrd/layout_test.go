package rrd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"time"
)

// TestHeapObjectsPerDBIndependentOfRows is the layout gate: an archive is a
// fixed handful of heap objects whatever its length, because each ring is
// one pointer-free slab and not a slice per row (729 objects per DB at a
// 1-minute step and 24 h of history before the slab).
func TestHeapObjectsPerDBIndependentOfRows(t *testing.T) {
	const dbs = 256
	for _, history := range []time.Duration{24 * time.Hour, 10 * 24 * time.Hour} {
		keep := make([]*DB, dbs)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			db, err := NewFromPolicy(t0, "v", ArchivalPolicy{Step: time.Minute, History: history})
			if err != nil {
				t.Fatal(err)
			}
			keep[i] = db
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perDB := float64(after.HeapObjects-before.HeapObjects) / dbs
		t.Logf("history %v: %.1f objects per DB", history, perDB)
		if perDB >= 16 {
			t.Errorf("history %v: %.1f live heap objects per DB, want under 16", history, perDB)
		}
		runtime.KeepAlive(keep)
	}
}

// memRings is the smallest external RingStore: the rows in a map.
type memRings map[[2]int][]float64

func (m memRings) WriteRow(rra, row int, values []float64) error {
	copy(m[[2]int{rra, row}], values)
	return nil
}

func (m memRings) ReadRow(rra, row int, dst []float64) error {
	copy(dst, m[[2]int{rra, row}])
	return nil
}

// TestSteadyStateUpdateAllocatesNothing: once the scratch exists, an update
// that finalizes a PDP and writes a row on every archive allocates nothing,
// on the memory engine and through an external RingStore (3 allocations —
// rates, PDP, row — before the scratch).
func TestSteadyStateUpdateAllocatesNothing(t *testing.T) {
	ds := []DS{
		{Name: "a", Type: Gauge, Heartbeat: time.Hour, Min: math.NaN(), Max: math.NaN()},
		{Name: "b", Type: Counter, Heartbeat: time.Hour, Min: math.NaN(), Max: math.NaN()},
	}
	rras := []RRA{{CF: Average, XFF: 0.5, Steps: 1, Rows: 8}, {CF: Max, XFF: 0.5, Steps: 2, Rows: 4}}
	rings := memRings{}
	for ri, r := range rras {
		for row := 0; row < r.Rows; row++ {
			rings[[2]int{ri, row}] = make([]float64, len(ds))
		}
	}
	mem, err := New(t0, time.Minute, ds, rras)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewExternal(t0, time.Minute, ds, rras, rings)
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"memory": mem, "external": ext} {
		at := t0
		update := func() {
			at = at.Add(time.Minute)
			if err := db.Update(at, 1, float64(at.Unix())); err != nil {
				t.Fatal(err)
			}
		}
		update()
		if allocs := testing.AllocsPerRun(100, update); allocs != 0 {
			t.Errorf("%s engine: %.0f allocations per steady-state Update, want 0", name, allocs)
		}
	}
}

// TestFetchWindowSharesOneBackingArray: a bounded Fetch returns exactly the
// rows of the full series that fall inside [start, end], and although all
// points share one backing array, appending to one point's values cannot
// reach the next point.
func TestFetchWindowSharesOneBackingArray(t *testing.T) {
	db := pinnedDB(t, 103)
	full, err := db.Fetch(Average, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != 16 {
		t.Fatalf("full series has %d points, want the 16 rows of the wrapped ring", len(full.Points))
	}
	for lo := 0; lo <= len(full.Points); lo++ {
		for hi := lo; hi <= len(full.Points); hi++ {
			// Between-row bounds: half a step outside the wanted run.
			start := full.Points[0].Time.Add(time.Duration(lo)*time.Minute - 30*time.Second)
			end := full.Points[0].Time.Add(time.Duration(hi)*time.Minute - 30*time.Second)
			got, err := db.Fetch(Average, start, end)
			if err != nil {
				t.Fatal(err)
			}
			want := &Series{Resolution: full.Resolution, Points: full.Points[lo:hi]}
			if !seriesEqual(got, want) {
				t.Fatalf("rows [%d,%d): got %d points, want %d", lo, hi, len(got.Points), hi-lo)
			}
		}
	}
	next := full.Points[1].Values[0]
	_ = append(full.Points[0].Values, -1)
	if got := full.Points[1].Values[0]; got != next && !(math.IsNaN(got) && math.IsNaN(next)) {
		t.Fatalf("append to point 0 overwrote point 1: %g, was %g", got, next)
	}
}

// pinnedDB replays a fixed update sequence — two data sources, two archives
// that both wrap, unknown inputs, irregular timestamps that leave a PDP and
// a consolidation window open — with no random source, so its image is the
// same bytes on every commit that keeps the INCARRD1 format.
func pinnedDB(t testing.TB, updates int) *DB {
	t.Helper()
	ds := []DS{
		{Name: "bw", Type: Gauge, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: 990},
		{Name: "pkts", Type: Counter, Heartbeat: 10 * time.Minute, Min: math.NaN(), Max: math.NaN()},
	}
	rras := []RRA{
		{CF: Average, XFF: 0.5, Steps: 1, Rows: 16},
		{CF: Max, XFF: 0.3, Steps: 5, Rows: 8},
	}
	db, err := New(t0, time.Minute, ds, rras)
	if err != nil {
		t.Fatal(err)
	}
	counter := 0.0
	for i := 1; i <= updates; i++ {
		counter += float64(i * 37 % 500)
		v := float64(i*7919%1000) + 0.25
		if i%9 == 0 {
			v = math.NaN()
		}
		at := t0.Add(time.Duration(i)*time.Minute + time.Duration(i*13%30)*time.Second)
		if err := db.Update(at, v, counter); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func image(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImageFormatPinned: the digest below was taken from this test run on
// the commit before the rings became flat slabs, so it proves the on-disk
// format did not move with the layout; an image read back re-serializes to
// the same bytes.
func TestImageFormatPinned(t *testing.T) {
	const want = "1887919e87e5083d799200a9f4f8dc071c3a33bad9b8a896c9d7ceb9d86f4d4f"
	img := image(t, pinnedDB(t, 103))
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("image of the pinned sequence has SHA-256 %s, want %s", got, want)
	}
	back, err := ReadDB(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(t, back), img) {
		t.Fatal("image changed across ReadDB → WriteTo")
	}
}

// hostileImage is a fresh single-source image cut off after its archive
// header, with that header's Rows field raised to rows: the smallest input
// that claims a large ring and supplies none of it.
func hostileImage(t testing.TB, rows uint64) []byte {
	t.Helper()
	db, err := NewFromPolicy(t0, "v", ArchivalPolicy{Step: time.Minute, History: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	img := image(t, db)
	// magic (8+8), step, created, lastUpdate, updates, nds; one DS: name
	// (8+1), type, heartbeat, min, max, lastRaw, pdpSum, pdpKnown; nrra;
	// then CF, XFF, Steps, Rows.
	rowsOff := 16 + 5*8 + 9 + 7*8 + 8 + 3*8
	if got := binary.BigEndian.Uint64(img[rowsOff:]); got != 60 {
		t.Fatalf("Rows field not at offset %d: read %d, want 60", rowsOff, got)
	}
	binary.BigEndian.PutUint64(img[rowsOff:], rows)
	return img[:rowsOff+8+4*8+6*8] // + newest, filled, lastEnd, pdpCount, one accumulator
}

// TestReadDBHostileRowsClaim: a 241-byte image claiming 1<<24 rows is
// refused for what it is — truncated — without the reader first allocating
// the ring the header claims (512 MB in 16.7 M objects before the fix).
func TestReadDBHostileRowsClaim(t *testing.T) {
	img := hostileImage(t, 1<<24)
	if len(img) != 241 {
		t.Fatalf("hostile image is %d bytes, want 241", len(img))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadDB(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated image accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("ReadDB allocated %d bytes to refuse a %d-byte image, want under 1 MB", grew, len(img))
	}
}

// FuzzReadDB feeds the image reader arbitrary bytes. Whatever it accepts
// must be a prefix it can reproduce byte for byte, and must survive the
// calls a restored archive gets: an update and a fetch per archive.
func FuzzReadDB(f *testing.F) {
	fresh, err := NewFromPolicy(t0, "v", ArchivalPolicy{Step: time.Minute, History: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image(f, fresh))
	f.Add(image(f, pinnedDB(f, 103))) // both rings wrapped
	f.Add(image(f, pinnedDB(f, 7)))   // mid-consolidation, nothing wrapped
	f.Add(hostileImage(f, 1<<24))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadDB(bytes.NewReader(data))
		if err != nil {
			return
		}
		img := image(t, db)
		if len(img) > len(data) || !bytes.Equal(img, data[:len(img)]) {
			t.Fatalf("accepted image re-serializes to different bytes (%d in, %d out)", len(data), len(img))
		}
		values := make([]float64, len(db.DSNames()))
		_ = db.Update(db.Last().Add(db.Step()), values...) // may be refused (time overflow); must not panic
		for _, cf := range []CF{Average, Min, Max, Last} {
			_, _ = db.Fetch(cf, db.Last().Add(-time.Hour), db.Last()) // errors when no archive has this CF
		}
	})
}
