package file

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"inca/internal/rrd"
)

var testPolicy = rrd.ArchivalPolicy{
	Step:        30 * time.Second,
	Granularity: 2,
	History:     30 * time.Minute, // 30 rows per CF
	CFs:         []rrd.CF{rrd.Average, rrd.Min, rrd.Max, rrd.Last},
}

var testStart = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

// drive pushes the same pseudo-random sample stream (with gaps and unknowns)
// into every sink.
func drive(t *testing.T, n int, sinks ...interface {
	Update(time.Time, ...float64) error
}) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	at := testStart
	for i := 0; i < n; i++ {
		at = at.Add(testPolicy.Step + time.Duration(rng.Intn(5))*time.Second)
		v := 100 + 40*math.Sin(float64(i)/9) + rng.Float64()*10
		if rng.Intn(17) == 0 {
			v = math.NaN()
		}
		if rng.Intn(23) == 0 {
			at = at.Add(5 * testPolicy.Step) // heartbeat gap
		}
		for _, s := range sinks {
			if err := s.Update(at, v); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
}

func image(t *testing.T, w io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func mustImage(t *testing.T, mem *rrd.DB, disk *DB) ([]byte, []byte) {
	t.Helper()
	var mb, db bytes.Buffer
	if _, err := mem.WriteTo(&mb); err != nil {
		t.Fatalf("memory WriteTo: %v", err)
	}
	if _, err := disk.WriteTo(&db); err != nil {
		t.Fatalf("disk WriteTo: %v", err)
	}
	return mb.Bytes(), db.Bytes()
}

// TestDiskMatchesMemory drives identical sample streams through an
// in-memory DB and a disk-backed one: every consolidation function must
// fetch the same points and the snapshot images must be byte-identical —
// the property that makes storage backends interchangeable under the depot.
func TestDiskMatchesMemory(t *testing.T) {
	for _, n := range []int{5, 40, 400} { // partial fill, full, wrapped many times
		mem, err := rrd.NewFromPolicy(testStart, "bw", testPolicy)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := CreateFromPolicy(filepath.Join(t.TempDir(), "bw.rrd"), testStart, "bw", testPolicy)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, n, mem, disk)

		start, end := testStart, testStart.Add(4*time.Hour)
		for _, cf := range testPolicy.CFs {
			ms, err := mem.Fetch(cf, start, end)
			if err != nil {
				t.Fatalf("n=%d mem fetch %v: %v", n, cf, err)
			}
			ds, err := disk.Fetch(cf, start, end)
			if err != nil {
				t.Fatalf("n=%d disk fetch %v: %v", n, cf, err)
			}
			if len(ms.Points) != len(ds.Points) {
				t.Fatalf("n=%d cf=%v: %d vs %d points", n, cf, len(ms.Points), len(ds.Points))
			}
			for i := range ms.Points {
				mv, dv := ms.Points[i].Values[0], ds.Points[i].Values[0]
				if !ms.Points[i].Time.Equal(ds.Points[i].Time) ||
					(mv != dv && !(math.IsNaN(mv) && math.IsNaN(dv))) {
					t.Fatalf("n=%d cf=%v point %d: mem %v=%v disk %v=%v",
						n, cf, i, ms.Points[i].Time, mv, ds.Points[i].Time, dv)
				}
			}
			if mlv, dlv := mem.LastValue(cf), disk.LastValue(cf); mlv != dlv && !(math.IsNaN(mlv) && math.IsNaN(dlv)) {
				t.Fatalf("n=%d cf=%v last value: mem %v disk %v", n, cf, mlv, dlv)
			}
		}
		mi, di := mustImage(t, mem, disk)
		if !bytes.Equal(mi, di) {
			t.Fatalf("n=%d: snapshot images differ (%d vs %d bytes)", n, len(mi), len(di))
		}
		if err := disk.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestReopenRoundTrip closes a populated archive, reopens it, and checks the
// restored state serves identical data and accepts further updates exactly
// like the never-closed in-memory twin.
func TestReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bw.rrd")
	mem, err := rrd.NewFromPolicy(testStart, "bw", testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := CreateFromPolicy(path, testStart, "bw", testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, 120, mem, disk)
	before, _ := mustImage(t, mem, disk)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	disk, err = Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer disk.Close()
	var buf bytes.Buffer
	if _, err := disk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, buf.Bytes()) {
		t.Fatalf("image changed across reopen (%d vs %d bytes)", len(before), buf.Len())
	}
	if got, want := disk.Updates(), mem.Updates(); got != want {
		t.Fatalf("updates counter: got %d want %d", got, want)
	}

	// Continue the identical stream; equivalence must hold across the reopen.
	rng := rand.New(rand.NewSource(11))
	at := disk.Last()
	for i := 0; i < 150; i++ {
		at = at.Add(testPolicy.Step)
		v := float64(rng.Intn(500))
		if err := mem.Update(at, v); err != nil {
			t.Fatal(err)
		}
		if err := disk.Update(at, v); err != nil {
			t.Fatal(err)
		}
	}
	mi, di := mustImage(t, mem, disk)
	if !bytes.Equal(mi, di) {
		t.Fatalf("post-reopen images differ")
	}
}

// TestTornStateFallsBack corrupts the most recent state slot, as a crash
// mid-pwrite would, and expects Open to recover from the older slot.
func TestTornStateFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bw.rrd")
	disk, err := CreateFromPolicy(path, testStart, "bw", testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	at := testStart
	for i := 0; i < 10; i++ {
		at = at.Add(testPolicy.Step)
		if err := disk.Update(at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	geom, seq := disk.geom, disk.seq
	wantUpdates := disk.Updates() - 1 // newest slot dies; prior state loses one update
	// Drop the handle without Close's final state flush — a crash doesn't
	// get to write a clean shutdown state.
	if err := disk.f.Close(); err != nil {
		t.Fatal(err)
	}
	newest := seq % 2

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over the newest slot's payload so its CRC fails.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xde}, 32), geom.stateOff+int64(newest)*geom.slotStride+slotHeaderLen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	disk, err = Open(path)
	if err != nil {
		t.Fatalf("open after torn state: %v", err)
	}
	defer disk.Close()
	if got := disk.Updates(); got != wantUpdates {
		t.Fatalf("recovered updates=%d want %d", got, wantUpdates)
	}
	// The archive must still accept the lost update again (replay path).
	if err := disk.Update(at, 9); err != nil {
		t.Fatalf("update after fallback: %v", err)
	}
}

// TestBothSlotsDeadFails destroys both state slots; Open must refuse rather
// than serve garbage.
func TestBothSlotsDeadFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bw.rrd")
	disk, err := CreateFromPolicy(path, testStart, "bw", testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	geom := disk.geom
	disk.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < 2; slot++ {
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xAA}, 48), geom.stateOff+slot*geom.slotStride); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if _, err := Open(path); err == nil {
		t.Fatal("Open succeeded with both state slots corrupt")
	}
}

// TestOpenRejectsGarbage feeds Open a non-archive file.
func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.rrd")
	if err := os.WriteFile(path, []byte("this is not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted garbage")
	}
}

// TestCreateRefusesExisting double-creates.
func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bw.rrd")
	d, err := CreateFromPolicy(path, testStart, "bw", testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := CreateFromPolicy(path, testStart, "bw", testPolicy); err == nil {
		t.Fatal("Create overwrote an existing archive")
	}
}

// TestSparseAllocation verifies the file's apparent size covers the rings
// while the regions stay page-aligned; block usage stays tiny until rows
// are written.
func TestSparseAllocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.rrd")
	pol := rrd.ArchivalPolicy{Step: time.Second, History: 100000 * time.Second, CFs: []rrd.CF{rrd.Average}}
	d, err := CreateFromPolicy(path, testStart, "bw", pol)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 100000*8 {
		t.Fatalf("apparent size %d too small for 100k rows", fi.Size())
	}
	// Geometry invariants: rings page-aligned past the state slots.
	if d.geom.ringOff[0]%pageSize != 0 || d.geom.stateOff%pageSize != 0 {
		t.Fatalf("regions not page-aligned: state %d ring %d", d.geom.stateOff, d.geom.ringOff[0])
	}
}
