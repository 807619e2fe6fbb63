package rrd

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// reread is db's image read back: what an install receives.
func reread(t *testing.T, db *DB) *DB {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInstallRule: an archive not ahead of the image takes it whole, with
// the image's rows and consolidation state and an update count that only
// rises; one ahead of it, or of another geometry, is left as it was.
func TestInstallRule(t *testing.T) {
	src := populatedDB(t, 3, 90)
	want := fetchAll(t, src, Average)

	// An archive behind the image: its own history goes, the image's comes.
	behind := populatedDB(t, 4, 20)
	before := behind.Updates()
	ok, err := behind.Install(reread(t, src))
	if err != nil || !ok {
		t.Fatalf("install over an older archive: %v %v", ok, err)
	}
	if got := fetchAll(t, behind, Average); !seriesEqual(got, want) {
		t.Fatal("installed archive fetches other points than its image")
	}
	if !behind.Last().Equal(src.Last()) || behind.Updates() <= before || behind.Updates() < src.Updates() {
		t.Fatalf("after install: last %v updates %d, image last %v updates %d, before %d", behind.Last(), behind.Updates(), src.Last(), src.Updates(), before)
	}
	if behind.LastValue(Average) != src.LastValue(Average) {
		t.Fatalf("last value %v, image's %v", behind.LastValue(Average), src.LastValue(Average))
	}
	// The next sample continues the image's consolidation as it would have
	// continued on the image's own archive.
	next := src.Last().Add(time.Minute)
	if err := src.Update(next, 7, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := behind.Update(next, 7, 1e6); err != nil {
		t.Fatal(err)
	}
	if !seriesEqual(fetchAll(t, behind, Max), fetchAll(t, src, Max)) {
		t.Fatal("an update after the install consolidates differently")
	}

	// An archive ahead of the image keeps its own history.
	ahead := populatedDB(t, 5, 120)
	kept := fetchAll(t, ahead, Average)
	if ok, err := ahead.Install(reread(t, populatedDB(t, 3, 90))); err != nil || ok {
		t.Fatalf("install over a newer archive: %v %v", ok, err)
	}
	if !seriesEqual(fetchAll(t, ahead, Average), kept) {
		t.Fatal("a refused install changed the archive")
	}

	// Another geometry is refused whatever the times say.
	other, err := NewFromPolicy(t0, "bw", ArchivalPolicy{Step: time.Minute, History: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := other.Install(reread(t, src)); err != nil || ok {
		t.Fatalf("install across geometries: %v %v", ok, err)
	}
	if other.Updates() != 0 {
		t.Fatal("a refused install counted an update")
	}
}

// TestInstallIntoEmpty: an archive with no update takes any image of its
// geometry, even one whose last update is before the archive's creation.
func TestInstallIntoEmpty(t *testing.T) {
	p := ArchivalPolicy{Step: time.Minute, History: time.Hour}
	src, err := NewFromPolicy(t0, "v", p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := src.Update(t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	empty, err := NewFromPolicy(t0.Add(24*time.Hour), "v", p)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := empty.Install(reread(t, src)); err != nil || !ok {
		t.Fatalf("install into an empty archive: %v %v", ok, err)
	}
	if v := empty.LastValue(Average); v != 5 || math.IsNaN(v) {
		t.Fatalf("last value %v after install, want 5", v)
	}
}
