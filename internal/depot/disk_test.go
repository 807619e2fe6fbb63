package depot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

// diskDepot opens a disk depot over dir with small-test defaults.
func diskDepot(t *testing.T, dir string, opts DiskOptions) *Depot {
	t.Helper()
	opts.Dir = dir
	d, err := OpenDisk(opts)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

// TestDiskMatchesMemorySeries is the backend-identity acceptance check:
// the same concurrent store workload against the memory engine and the
// disk engine must produce the same archived series point for point, and
// the two depots' snapshot images must be byte-identical.
func TestDiskMatchesMemorySeries(t *testing.T) {
	mem := New(nil)
	disk := diskDepot(t, t.TempDir(), DiskOptions{})
	for _, d := range []*Depot{mem, disk} {
		addPolicies(t, d, bandwidthPolicies("site=sdsc"))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
				for i := 0; i < 50; i++ {
					at := dt0.Add(time.Duration(i+1) * 10 * time.Minute)
					if _, err := d.Store(id, twoStatReport(t, at, float64(900+i), i%7 != 0)); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}

	mk, dk := mem.ArchivedSeries(), disk.ArchivedSeries()
	if len(mk) != len(dk) || len(mk) != 4*5 {
		t.Fatalf("series: memory %d, disk %d", len(mk), len(dk))
	}
	start, end := dt0, dt0.Add(10*time.Hour)
	for i, key := range mk {
		if dk[i] != key {
			t.Fatalf("series %d: memory %q, disk %q", i, key, dk[i])
		}
		n := strings.LastIndexByte(key, '|')
		id, pol := branch.MustParse(key[:n]), key[n+1:]
		for _, cf := range []rrd.CF{rrd.Average, rrd.Min, rrd.Max} {
			ms, merr := mem.FetchArchive(id, pol, cf, start, end)
			ds, derr := disk.FetchArchive(id, pol, cf, start, end)
			if (merr == nil) != (derr == nil) {
				t.Fatalf("%s/%v: fetch errors differ: %v vs %v", key, cf, merr, derr)
			}
			if merr != nil {
				continue
			}
			if len(ms.Points) != len(ds.Points) {
				t.Fatalf("%s/%v: %d vs %d points", key, cf, len(ms.Points), len(ds.Points))
			}
			for j := range ms.Points {
				mv, dv := ms.Points[j].Values[0], ds.Points[j].Values[0]
				if !ms.Points[j].Time.Equal(ds.Points[j].Time) ||
					(mv != dv && !(math.IsNaN(mv) && math.IsNaN(dv))) {
					t.Fatalf("%s/%v point %d: memory (%v,%g) disk (%v,%g)",
						key, cf, j, ms.Points[j].Time, mv, ds.Points[j].Time, dv)
				}
			}
		}
	}

	var mi, di bytes.Buffer
	if err := mem.WriteSnapshot(&mi); err != nil {
		t.Fatal(err)
	}
	if err := disk.WriteSnapshot(&di); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mi.Bytes(), di.Bytes()) {
		t.Fatalf("snapshot images differ across backends (%d vs %d bytes)", mi.Len(), di.Len())
	}
	mem.Close()
	disk.Close()
}

// TestDiskRestartWALReplay closes a disk depot without a checkpoint and
// reopens it: every acknowledged store must come back via WAL replay —
// cache, policies, and archived series.
func TestDiskRestartWALReplay(t *testing.T) {
	dir := t.TempDir()
	d := diskDepot(t, dir, DiskOptions{})
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 30)
	if err := d.ArchiveUpdate(id, "bw-lower", dt0.Add(400*time.Minute), 777); err != nil {
		t.Fatal(err)
	}
	wantSeries := d.ArchivedSeries()
	wantLatest := d.LatestValue(id, "bw-lower", rrd.Average)
	wantCount := d.Cache().Count()
	d.Close()

	re := diskDepot(t, dir, DiskOptions{})
	defer re.Close()
	if got := re.ArchivedSeries(); len(got) != len(wantSeries) {
		t.Fatalf("series after restart = %d, want %d", len(got), len(wantSeries))
	}
	if got := len(re.Policies()); got != 5 {
		t.Fatalf("policies after restart = %d, want 5", got)
	}
	if got := re.Cache().Count(); got != wantCount {
		t.Fatalf("cache count after restart = %d, want %d", got, wantCount)
	}
	if got := re.LatestValue(id, "bw-lower", rrd.Average); got != wantLatest {
		t.Fatalf("latest after restart = %g, want %g", got, wantLatest)
	}
	// The depot keeps working: the next report in the sequence archives.
	at := dt0.Add(31 * 10 * time.Minute)
	if _, err := re.Store(id, twoStatReport(t, at, 999, true)); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCheckpointTruncatesWAL checkpoints, verifies the old segments
// are gone, and confirms a restart (which replays almost nothing) still
// serves everything.
func TestDiskCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	d := diskDepot(t, dir, DiskOptions{})
	addPolicies(t, d, bandwidthPolicies("site=sdsc"))
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	seqs, err := walSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("segments after checkpoint = %v, want exactly the fresh one", seqs)
	}
	// Post-checkpoint stores land in the fresh segment.
	storeSequence(t, d, id, 25) // first 20 are duplicates (dropped), 5 new
	wantLatest := d.LatestValue(id, "bw-lower", rrd.Average)
	d.Close()

	re := diskDepot(t, dir, DiskOptions{})
	defer re.Close()
	if got := re.LatestValue(id, "bw-lower", rrd.Average); got != wantLatest {
		t.Fatalf("latest after checkpointed restart = %g, want %g", got, wantLatest)
	}
	if got := re.Cache().Count(); got != 1 {
		t.Fatalf("cache count = %d, want 1", got)
	}
}

// TestDiskWALTornTail truncates the last WAL segment mid-frame and
// appends garbage; recovery must keep every whole frame, drop the tail,
// and leave the segment clean.
func TestDiskWALTornTail(t *testing.T) {
	dir := t.TempDir()
	d := diskDepot(t, dir, DiskOptions{})
	addPolicies(t, d, []Policy{{
		Name: "avail", Prefix: branch.MustParse("site=sdsc"), Path: "",
		Archive: rrd.ArchivalPolicy{Step: 10 * time.Minute, History: 24 * time.Hour},
	}})
	id := branch.MustParse("tool=pathload,site=sdsc")
	storeSequence(t, d, id, 10)
	d.Close()

	// Find the segment holding the reports (the last one before Close).
	walDir := filepath.Join(dir, "wal")
	seqs, err := walSegments(walDir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("wal segments: %v %v", seqs, err)
	}
	seg := filepath.Join(walDir, walSegmentName(seqs[len(seqs)-1]))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the final frame, then append garbage that must not be
	// mistaken for data.
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(info.Size() - 37); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0x5a}, 200)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := diskDepot(t, dir, DiskOptions{})
	defer re.Close()
	// Reports 1..9 survived whole; report 10's frame was torn off.
	s, err := re.FetchArchive(id, "avail", rrd.Average, dt0, dt0.Add(5*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, p := range s.Points {
		if !math.IsNaN(p.Values[0]) {
			known++
		}
	}
	if known == 0 {
		t.Fatal("no archived data survived the torn tail")
	}
	if got := re.Cache().Count(); got != 1 {
		t.Fatalf("cache count = %d, want 1", got)
	}
	// The torn segment was truncated at the last good frame: a second
	// restart replays it without error.
	re.Close()
	re2 := diskDepot(t, dir, DiskOptions{})
	re2.Close()
}

// TestDiskLRUBoundsHandles stores into far more series than the handle
// cap and checks the store never holds more than the cap open while every
// series stays fetchable.
func TestDiskLRUBoundsHandles(t *testing.T) {
	dir := t.TempDir()
	d := diskDepot(t, dir, DiskOptions{OpenFiles: 4})
	defer d.Close()
	addPolicies(t, d, []Policy{{
		Name: "avail", Prefix: branch.MustParse("site=sdsc"), Path: "",
		Archive: rrd.ArchivalPolicy{Step: 10 * time.Minute, History: 24 * time.Hour},
	}})
	for g := 0; g < 20; g++ {
		id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
		storeSequence(t, d, id, 3)
	}
	ds := d.archives.(*diskStore)
	if got := ds.openHandles(); got > 4 {
		t.Fatalf("open handles = %d, cap 4", got)
	}
	if got := d.Stats().Archives; got != 20 {
		t.Fatalf("archives = %d, want 20", got)
	}
	// Every series — including long-evicted ones — reopens on demand.
	for g := 0; g < 20; g++ {
		id := branch.MustParse(fmt.Sprintf("tool=probe%d,site=sdsc", g))
		if v := d.LatestValue(id, "avail", rrd.Average); math.IsNaN(v) {
			t.Fatalf("series %d lost after eviction", g)
		}
	}
	if got := ds.openHandles(); got > 4 {
		t.Fatalf("open handles after fetches = %d, cap 4", got)
	}
}

// TestDiskManualOnlyScale drives ArchiveUpdate across many series — the
// series-scale path the storage experiment uses — and spot-checks
// persistence across a restart.
func TestDiskManualOnlyScale(t *testing.T) {
	dir := t.TempDir()
	d := diskDepot(t, dir, DiskOptions{OpenFiles: 8})
	if err := d.AddPolicy(Policy{
		Name: "series", ManualOnly: true,
		Archive: rrd.ArchivalPolicy{Step: time.Minute, History: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		id := branch.MustParse(fmt.Sprintf("series=s%d,site=scale", i))
		for j := 0; j < 5; j++ {
			at := dt0.Add(time.Duration(j+1) * time.Minute)
			if err := d.ArchiveUpdate(id, "series", at, float64(i*100+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Close()
	re := diskDepot(t, dir, DiskOptions{OpenFiles: 8})
	defer re.Close()
	if got := re.Stats().Archives; got != 50 {
		t.Fatalf("archives after restart = %d, want 50", got)
	}
	id := branch.MustParse("series=s37,site=scale")
	if v := re.LatestValue(id, "series", rrd.Average); math.IsNaN(v) {
		t.Fatal("manual series lost across restart")
	}
}

// TestReadSectionRejectsCorruptLength feeds a section header that claims
// gigabytes: the reader must fail on the short read, not allocate it.
func TestReadSectionRejectsCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("CACH")
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], 3<<30) // 3 GiB claimed
	buf.Write(lenBuf[:])
	buf.WriteString("tiny")
	if _, _, err := readSection(bufio.NewReader(&buf)); err == nil {
		t.Fatal("readSection accepted a 3 GiB claim over 4 bytes")
	}
}

// TestCheckpointOnMemoryDepotFails keeps the API honest.
func TestCheckpointOnMemoryDepotFails(t *testing.T) {
	d := New(nil)
	if err := d.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded on a memory depot")
	}
}

// TestRestoreKeepsConfiguredCache: a depot runs on the IndexedCache, given
// one or given none, and still does after a checkpoint restart and after a
// snapshot round trip, holding the same document.
func TestRestoreKeepsConfiguredCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Cache // nil result: take the default
		want string
	}{
		{"indexed", func() Cache { return NewIndexedCache() }, "*depot.IndexedCache"},
		{"default", func() Cache { return nil }, "*depot.IndexedCache"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(step string, d *Depot, wantDump []byte) {
				t.Helper()
				if got := fmt.Sprintf("%T", d.Cache()); got != tc.want {
					t.Fatalf("%s: depot runs on %s, want %s", step, got, tc.want)
				}
				if wantDump != nil && !bytes.Equal(d.Cache().Dump(), wantDump) {
					t.Fatalf("%s: document changed:\n%s\nwant\n%s", step, d.Cache().Dump(), wantDump)
				}
			}
			dir := t.TempDir()
			d := diskDepot(t, dir, DiskOptions{Cache: tc.mk()})
			check("fresh", d, nil)
			for i, doc := range []string{
				`<r><v>1</v></r>`,
				`<r><v/><?keep this?></r>`, // tokenised on insert and again on restore
				`<r a="x &amp; y"><v>&lt;3</v></r>`,
				`<r><v>replaced</v></r>`,
			} {
				id := branch.MustParse(fmt.Sprintf("probe=p%d,site=s%d,vo=tg", i%3, i%2))
				if _, err := d.Store(id, []byte(doc)); err != nil {
					t.Fatal(err)
				}
			}
			want := d.Cache().Dump()
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			d.Close()

			re := diskDepot(t, dir, DiskOptions{Cache: tc.mk()})
			defer re.Close()
			check("checkpoint restart", re, want)

			var img bytes.Buffer
			if err := re.WriteSnapshot(&img); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSnapshotOptions(&img, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check("snapshot round trip", back, want)
		})
	}
}
