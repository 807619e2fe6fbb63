package depot

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/rrd"
)

func snapshotTestDepot(t *testing.T) *Depot {
	t.Helper()
	d := New(nil)
	if err := d.AddPolicy(Policy{
		Name:   "bw",
		Prefix: branch.MustParse("site=sdsc"),
		Path:   "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{
			Step: time.Hour, Granularity: 1, History: 7 * 24 * time.Hour,
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPolicy(Policy{
		Name:       "manual",
		ManualOnly: true,
		Archive:    rrd.ArchivalPolicy{Step: 10 * time.Minute, History: 24 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("tool=pathload,site=sdsc")
	for i := 1; i <= 12; i++ {
		if _, err := d.Store(id, reportWithValue(t, dt0.Add(time.Duration(i)*time.Hour), 900+float64(i), true)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Store(branch.MustParse("x=1,site=other"), []byte("<foreign><v>1</v></foreign>")); err != nil {
		t.Fatal(err)
	}
	if err := d.ArchiveUpdate(branch.MustParse("category=Grid,resource=r1"), "manual", dt0.Add(time.Hour), 97); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := snapshotTestDepot(t)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Cache contents identical.
	origReports, _ := d.Cache().Reports(branch.ID{})
	backReports, _ := back.Cache().Reports(branch.ID{})
	if !reportsEqual(origReports, backReports) {
		t.Fatal("cache contents diverge")
	}
	if back.Cache().Count() != d.Cache().Count() {
		t.Fatalf("counts: %d vs %d", back.Cache().Count(), d.Cache().Count())
	}
	// Policies identical.
	op, bp := d.Policies(), back.Policies()
	if len(op) != len(bp) {
		t.Fatalf("policies: %d vs %d", len(op), len(bp))
	}
	for i := range op {
		if op[i].Name != bp[i].Name || !op[i].Prefix.Equal(bp[i].Prefix) ||
			op[i].Path != bp[i].Path || op[i].ManualOnly != bp[i].ManualOnly ||
			op[i].Archive.Step != bp[i].Archive.Step {
			t.Fatalf("policy %d: %+v vs %+v", i, op[i], bp[i])
		}
	}
	// Archives identical.
	if len(back.ArchivedSeries()) != len(d.ArchivedSeries()) {
		t.Fatalf("archives: %v vs %v", back.ArchivedSeries(), d.ArchivedSeries())
	}
	id := branch.MustParse("tool=pathload,site=sdsc")
	a, err := d.FetchArchive(id, "bw", rrd.Average, dt0, dt0.Add(13*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.FetchArchive(id, "bw", rrd.Average, dt0, dt0.Add(13*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("series length: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		x, y := a.Points[i].Values[0], b.Points[i].Values[0]
		if math.IsNaN(x) != math.IsNaN(y) || (!math.IsNaN(x) && x != y) {
			t.Fatalf("point %d: %g vs %g", i, x, y)
		}
	}
}

func TestSnapshotReloadedDepotKeepsWorking(t *testing.T) {
	d := snapshotTestDepot(t)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// New reports keep archiving under the restored policy. The update
	// lands one step after the snapshot's last update, inside the
	// heartbeat, so its PDP is known.
	id := branch.MustParse("tool=pathload,site=sdsc")
	if _, err := back.Store(id, reportWithValue(t, dt0.Add(13*time.Hour), 955, true)); err != nil {
		t.Fatal(err)
	}
	s, err := back.FetchArchive(id, "bw", rrd.Average, dt0.Add(12*time.Hour), dt0.Add(14*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range s.Points {
		if !math.IsNaN(p.Values[0]) && p.Values[0] == 955 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-restore update not archived")
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("junk"), []byte("INCADEPOT1CACHbad")} {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadSnapshot accepted %q", data)
		}
	}
	// Truncated valid snapshot.
	d := snapshotTestDepot(t)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotEmptyDepot(t *testing.T) {
	d := New(nil)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cache().Count() != 0 || len(back.Policies()) != 0 {
		t.Fatal("empty depot round trip not empty")
	}
}

// namespacedReports are stored and restored by the re-store tests: a
// prefix and its declaration, a default namespace, and reports that are
// written out on admission because they also self-close, comment or
// declare a document type.
var namespacedReports = []string{
	`<r><x:pad xmlns:x="u">1</x:pad></r>`,
	`<r xmlns="u" xml:lang="en"><v>1</v></r>`,
	`<x:r xmlns:x='u'><x:v a="1"/><!-- c --></x:r>`,
	`<!DOCTYPE r><r xmlns:y="v"><y:v>2</y:v></r>`,
}

// storeNamespaced stores namespacedReports into d and returns its
// document.
func storeNamespaced(t *testing.T, d *Depot) []byte {
	t.Helper()
	for i, doc := range namespacedReports {
		if _, err := d.Store(branch.MustParse(fmt.Sprintf("probe=ns%d,site=s,vo=tg", i)), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	return d.Cache().Dump()
}

// TestSnapshotKeepsNamespacedReports restores a snapshot twice: each
// restore stores every payload again, and must store the same bytes.
func TestSnapshotKeepsNamespacedReports(t *testing.T) {
	d := New(nil)
	want := storeNamespaced(t, d)
	for i := 1; i <= 2; i++ {
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Cache().Dump(); !bytes.Equal(got, want) {
			t.Fatalf("restore %d changed the document:\n%s\nwant\n%s", i, got, want)
		}
		d = back
	}
}
