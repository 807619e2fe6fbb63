package depot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

func TestFileCacheCreateAndPersist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.xml")
	fc, err := ablation.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Count() != 0 {
		t.Fatal("fresh cache not empty")
	}
	if _, err := fc.Update(branch.MustParse("r=1,vo=tg"), []byte("<rep><v>one</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Update(branch.MustParse("r=2,vo=tg"), []byte("<rep><v>two</v></rep>")); err != nil {
		t.Fatal(err)
	}
	// The on-disk file is the live document.
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, fc.Dump()) {
		t.Fatal("disk and memory diverge")
	}
	// A new process (fresh open) sees everything.
	fc2, err := ablation.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if fc2.Count() != 2 {
		t.Fatalf("reloaded count = %d", fc2.Count())
	}
	got, _ := fc2.Reports(branch.MustParse("r=1,vo=tg"))
	if len(got) != 1 || !bytes.Contains(got[0].XML, []byte("one")) {
		t.Fatalf("reloaded reports = %+v", got)
	}
	if fc.Path() != path {
		t.Fatal("path accessor wrong")
	}
}

func TestFileCacheRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.xml")
	if err := os.WriteFile(path, []byte("<cache><broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ablation.OpenFileCache(path); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

func TestFileCacheBehavesLikeStreamCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.xml")
	fc, err := ablation.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := ablation.NewStreamCache()
	ids := []string{"r=1,s=a", "r=2,s=a", "r=1,s=b", "r=1,s=a"} // includes replace
	for i, id := range ids {
		payload := []byte("<rep><v>" + string(rune('0'+i)) + "</v></rep>")
		if _, err := fc.Update(branch.MustParse(id), payload); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Update(branch.MustParse(id), payload); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := fc.Reports(branch.ID{})
	b, _ := sc.Reports(branch.ID{})
	if !depot.ReportsEqual(a, b) {
		t.Fatal("file cache diverges from stream cache")
	}
	sub, ok, err := fc.Query(branch.MustParse("s=a"))
	if err != nil || !ok || !bytes.Contains(sub, []byte("branch")) {
		t.Fatalf("query: %v %v", ok, err)
	}
	if fc.Size() != sc.Size() {
		t.Fatalf("sizes: %d vs %d", fc.Size(), sc.Size())
	}
}

func TestFileCacheMalformedUpdateLeavesFileIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.xml")
	fc, err := ablation.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Update(branch.MustParse("r=1"), []byte("<rep><v>keep</v></rep>")); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if _, err := fc.Update(branch.MustParse("r=2"), []byte("<broken")); err == nil {
		t.Fatal("malformed payload accepted")
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("failed update changed the file")
	}
}

func TestFileCacheWorksAsDepotBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.xml")
	fc, err := ablation.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	d := depot.New(fc)
	if _, err := d.Store(branch.MustParse("probe=x,vo=tg"), []byte("<rep><v>990</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if d.Cache().Count() != 1 {
		t.Fatal("not stored")
	}
	// Reload as if the depot restarted, keeping the cache file.
	fc2, err := ablation.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if fc2.Count() != 1 {
		t.Fatal("cache file lost the report")
	}
}
