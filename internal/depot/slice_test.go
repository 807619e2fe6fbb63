package depot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

// sliceOf is d's slice.
func sliceOf(t *testing.T, d *Depot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSlice(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// apply reads data as a slice and applies it to d.
func apply(t *testing.T, d *Depot, data []byte) SliceResult {
	t.Helper()
	s, err := ReadSlice(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.ApplySlice(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func snapshotOf(t *testing.T, d *Depot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSliceMovesWholeState: a fresh depot given another's slice holds its
// policies, archives and reports — the same snapshot image, byte for byte.
func TestSliceMovesWholeState(t *testing.T) {
	src := snapshotTestDepot(t)
	dst := New(nil)
	res := apply(t, dst, sliceOf(t, src))
	if want := (SliceResult{Policies: 2, Installed: len(src.ArchivedSeries()), Reports: 2}); res != want {
		t.Fatalf("applied %+v, want %+v", res, want)
	}
	if !bytes.Equal(snapshotOf(t, dst), snapshotOf(t, src)) {
		t.Fatal("the destination's image differs from the source's")
	}
	// A second application changes no archive's history: every archive is
	// as new as the image, so it installs again, and the reports re-store.
	if res := apply(t, dst, sliceOf(t, src)); res.Policies != 0 || res.Kept != 0 {
		t.Fatalf("second application: %+v", res)
	}
}

// TestSliceInstallRule: a destination archive ahead of the image is kept
// and counted; one behind it takes the image, and its validator moves.
func TestSliceInstallRule(t *testing.T) {
	src := snapshotTestDepot(t)
	id := branch.MustParse("tool=pathload,site=sdsc")

	ahead := snapshotTestDepot(t)
	if _, err := ahead.Store(id, reportWithValue(t, dt0.Add(13*time.Hour), 1, true)); err != nil {
		t.Fatal(err)
	}
	if res := apply(t, ahead, sliceOf(t, src)); res.Kept != 1 || res.Installed != 1 {
		t.Fatalf("slice over a newer archive: %+v, want 1 kept and the manual archive installed", res)
	}
	if v := ahead.LatestValue(id, "bw", rrd.Average); v != 1 {
		t.Fatalf("kept archive's latest value %v, want 1", v)
	}

	behind := New(nil)
	addPolicies(t, behind, src.Policies())
	if _, err := behind.Store(id, reportWithValue(t, dt0.Add(time.Hour), 5, true)); err != nil {
		t.Fatal(err)
	}
	gen, _ := behind.ArchiveSeriesGeneration(id, "bw")
	if res := apply(t, behind, sliceOf(t, src)); res.Installed != 2 || res.Kept != 0 {
		t.Fatalf("slice over an older archive: %+v", res)
	}
	if got, _ := behind.ArchiveSeriesGeneration(id, "bw"); got == gen {
		t.Fatalf("the series validator stayed %d across an install", got)
	}
	want, _ := src.FetchArchive(id, "bw", rrd.Average, dt0, dt0.Add(24*time.Hour))
	got, _ := behind.FetchArchive(id, "bw", rrd.Average, dt0, dt0.Add(24*time.Hour))
	if len(got.Points) != len(want.Points) || got.Points[len(got.Points)-1].Values[0] != 912 {
		t.Fatalf("installed archive: %d points, want %d ending at 912", len(got.Points), len(want.Points))
	}
}

// TestReadSliceRefuses: each malformed section refuses the whole slice.
func TestReadSliceRefuses(t *testing.T) {
	good := sliceOf(t, snapshotTestDepot(t))
	section := func(tag string, body string) []byte {
		return appendSection(append([]byte(nil), good...), tag, []byte(body))
	}
	for name, data := range map[string][]byte{
		"truncated":         good[:len(good)-3],
		"report branch":     section("REPT", "site\x00<r></r>"),
		"report form":       section("REPT", "site=a\x00<r/>"),
		"branch form":       section("REPT", " site=a\x00<r></r>"),
		"report no branch":  section("REPT", "<r></r>"),
		"archive no policy": section("ARCH", "site=a\x00"),
		"archive image":     section("ARCH", "site=a|p\x00INCARRD1"),
		"policy name":       section("POLS", `<policies><policy name="x|p" prefix="" path="" step="1h0m0s" granularity="1" history="24h0m0s"></policy></policies>`),
		"policy geometry":   section("POLS", `<policies><policy name="p" prefix="" path="" step="0s" granularity="1" history="24h0m0s"></policy></policies>`),
	} {
		if _, err := ReadSlice(data); err == nil {
			t.Errorf("%s: slice accepted", name)
		}
	}
}

// TestPolicyNameHoldsNoBar: branch vo=a|x under policy p and branch vo=a
// under policy x|p would share the archive key vo=a|x|p, so no policy
// named with '|' enters — while one an older depot wrote into its image or
// its WAL still loads.
func TestPolicyNameHoldsNoBar(t *testing.T) {
	d := New(nil)
	arch := rrd.ArchivalPolicy{Step: time.Hour, History: 24 * time.Hour}
	if err := d.AddPolicy(Policy{Name: "p", Archive: arch}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPolicy(Policy{Name: "x|p", Archive: arch}); !errors.Is(err, ErrPolicyName) {
		t.Fatalf("AddPolicy(x|p) = %v, want ErrPolicyName", err)
	}

	const legacy = `<policies><policy name="x|p" prefix="" path="" step="1h0m0s" granularity="1" history="24h0m0s"></policy></policies>`
	img := []byte(snapshotMagic)
	img = appendSection(img, "CACH", []byte("<cache></cache>"))
	img = appendSection(img, "POLS", []byte(legacy))
	restored, err := ReadSnapshot(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("an image holding x|p: %v", err)
	}
	if ps := restored.Policies(); len(ps) != 1 || ps[0].Name != "x|p" {
		t.Fatalf("restored policies %+v", ps)
	}

	rec := append([]byte{walPolicy}, `<policy name="x|p" prefix="" path="" step="1h0m0s" granularity="1" history="24h0m0s"></policy>`...)
	seg := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	seg = binary.BigEndian.AppendUint32(seg, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
	seg = append(seg, rec...)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", walSegmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	disk := diskDepot(t, dir, DiskOptions{})
	defer disk.Close()
	if ps := disk.Policies(); len(ps) != 1 || ps[0].Name != "x|p" {
		t.Fatalf("replayed policies %+v", ps)
	}
}

// TestDiskSliceInstallReplays: a disk depot takes a slice as a memory
// depot does, and a disk depot dropped without Close — its archive files
// lost too — rebuilds the installed archives from its WAL.
func TestDiskSliceInstallReplays(t *testing.T) {
	src := snapshotTestDepot(t)
	data := sliceOf(t, src)
	mem := New(nil)
	apply(t, mem, data)
	dir := t.TempDir()
	disk := diskDepot(t, dir, DiskOptions{})
	apply(t, disk, data)
	want := snapshotOf(t, mem)
	if !bytes.Equal(snapshotOf(t, disk), want) {
		t.Fatal("disk and memory destinations hold different images")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "archives"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("archive files: %v, %v", entries, err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".rrd") {
			os.Remove(filepath.Join(dir, "archives", e.Name()))
		}
	}
	re := diskDepot(t, dir, DiskOptions{})
	defer re.Close()
	defer disk.Close()
	if !bytes.Equal(snapshotOf(t, re), want) {
		t.Fatal("the reopened depot's image differs from the one the slice made")
	}
}

// TestSliceInstallUnderStores: installs race stores into the same
// archive on both engines (run it under -race), and a store after the
// last install lands in the archive.
func TestSliceInstallUnderStores(t *testing.T) {
	data := sliceOf(t, snapshotTestDepot(t))
	id := branch.MustParse("tool=pathload,site=sdsc")
	mem := New(nil)
	disk := diskDepot(t, t.TempDir(), DiskOptions{})
	defer disk.Close()
	for _, d := range []*Depot{mem, disk} {
		apply(t, d, data)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for h := 13; h <= 40; h++ {
				if _, err := d.Store(id, reportWithValue(t, dt0.Add(time.Duration(h)*time.Hour), float64(h), true)); err != nil {
					t.Error(err)
				}
			}
		}()
		for i := 0; i < 20; i++ {
			s, err := ReadSlice(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ApplySlice(s); err != nil {
				t.Fatal(err)
			}
		}
		<-done
		if _, err := d.Store(id, reportWithValue(t, dt0.Add(41*time.Hour), 41, true)); err != nil {
			t.Fatal(err)
		}
		if v := d.LatestValue(id, "bw", rrd.Average); v != 41 {
			t.Fatalf("latest value %v after the stores, want 41", v)
		}
	}
}
