package depot_test

// The depot.Cache contract, held over every implementation: the indexed
// cache of this package and the paper's five in
// internal/experiments/ablation, which must all keep storing what
// StreamCache stores. These tests (and the files beside them in package
// depot_test) use exported names only and sit in the external test package
// because ablation imports depot; they stay in this directory so one table
// covers every cache.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

// allCaches builds each cache for the test that asks: the file cache takes
// its directory, and reports a failure to open, through that test's t.
func allCaches() map[string]func(*testing.T) depot.Cache {
	return map[string]func(*testing.T) depot.Cache{
		"stream": func(*testing.T) depot.Cache { return ablation.NewStreamCache() },
		"dom":    func(*testing.T) depot.Cache { return ablation.NewDOMCache() },
		"split":  func(*testing.T) depot.Cache { return ablation.NewSplitCache() },
		"file": func(t *testing.T) depot.Cache {
			fc, err := ablation.OpenFileCache(t.TempDir() + "/cache.xml")
			if err != nil {
				t.Fatal(err)
			}
			return fc
		},
		"indexed": func(*testing.T) depot.Cache { return depot.NewIndexedCache() },
	}
}

func TestCacheInsertAndQuery(t *testing.T) {
	for name, mk := range allCaches() {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			depot.MustUpdate(t, c, "resource=r1,site=sdsc,vo=tg", depot.ReportXMLFor("rep", "one"))
			if c.Count() != 1 {
				t.Fatalf("Count = %d", c.Count())
			}
			sub, ok, err := c.Query(branch.MustParse("resource=r1,site=sdsc,vo=tg"))
			if err != nil || !ok {
				t.Fatalf("Query: %v %v", ok, err)
			}
			if !bytes.Contains(sub, []byte("one")) {
				t.Fatalf("subtree missing payload: %s", sub)
			}
			// Prefix query returns the containing subtree.
			sub, ok, err = c.Query(branch.MustParse("site=sdsc,vo=tg"))
			if err != nil || !ok || !bytes.Contains(sub, []byte("one")) {
				t.Fatalf("prefix query failed: %v %v %s", ok, err, sub)
			}
			// Miss.
			if _, ok, _ := c.Query(branch.MustParse("site=ncsa,vo=tg")); ok {
				t.Fatal("phantom subtree")
			}
		})
	}
}

func TestCacheReplaceSemantics(t *testing.T) {
	// "Further updates of the report will result in the replacement of the
	// previous copy." (Section 3.2.2)
	for name, mk := range allCaches() {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			id := "resource=r1,vo=tg"
			depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", "old"))
			depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", "new"))
			if c.Count() != 1 {
				t.Fatalf("Count = %d after replacement", c.Count())
			}
			dump := c.Dump()
			if bytes.Contains(dump, []byte("old")) {
				t.Fatalf("old payload survived: %s", dump)
			}
			if !bytes.Contains(dump, []byte("new")) {
				t.Fatalf("new payload missing: %s", dump)
			}
		})
	}
}

func TestCacheNoConfigurationForNewSchemas(t *testing.T) {
	// Arbitrary well-formed XML with unknown schema must be accepted.
	for name, mk := range allCaches() {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			weird := []byte(`<wholeNewThing attr="x"><nested><deep>1</deep></nested></wholeNewThing>`)
			depot.MustUpdate(t, c, "kind=unknown,vo=tg", weird)
			got, err := c.Reports(branch.ID{})
			if err != nil || len(got) != 1 {
				t.Fatalf("Reports: %v %d", err, len(got))
			}
			if !bytes.Contains(got[0].XML, []byte("wholeNewThing")) {
				t.Fatalf("payload mangled: %s", got[0].XML)
			}
		})
	}
}

func TestCacheRejectsMalformedPayload(t *testing.T) {
	for name, mk := range allCaches() {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			depot.MustUpdate(t, c, "a=1", depot.ReportXMLFor("rep", "keep"))
			before := c.Dump()
			for _, bad := range [][]byte{nil, []byte(""), []byte("not xml"), []byte("<open>")} {
				if _, err := c.Update(branch.MustParse("b=2"), bad); err == nil {
					t.Fatalf("accepted %q", bad)
				}
			}
			if !bytes.Equal(c.Dump(), before) {
				t.Fatal("failed update corrupted the cache")
			}
		})
	}
}

func TestCacheSiblingsAndNesting(t *testing.T) {
	for name, mk := range allCaches() {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			ids := []string{
				"resource=r1,site=sdsc,vo=tg",
				"resource=r2,site=sdsc,vo=tg",
				"resource=r1,site=ncsa,vo=tg",
				"site=sdsc,vo=tg", // entry at an interior node
				"vo=tg",           // entry nearer the root
			}
			for i, id := range ids {
				depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", fmt.Sprintf("p%d", i)))
			}
			if c.Count() != len(ids) {
				t.Fatalf("Count = %d, want %d", c.Count(), len(ids))
			}
			for i, id := range ids {
				all, err := c.Reports(branch.MustParse(id))
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, s := range all {
					if s.ID.Equal(branch.MustParse(id)) && bytes.Contains(s.XML, []byte(fmt.Sprintf("p%d", i))) {
						found = true
					}
				}
				if !found {
					t.Fatalf("report %s not found (got %d under prefix)", id, len(all))
				}
			}
			// Prefix site=sdsc collects r1, r2 and the interior entry.
			got, _ := c.Reports(branch.MustParse("site=sdsc,vo=tg"))
			if len(got) != 3 {
				t.Fatalf("prefix reports = %d, want 3", len(got))
			}
		})
	}
}

func TestCacheRootEntry(t *testing.T) {
	for name, mk := range allCaches() {
		if name == "split" {
			continue // split cache has no root shard by design
		}
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			if _, err := c.Update(branch.ID{}, depot.ReportXMLFor("rep", "root")); err != nil {
				t.Fatal(err)
			}
			got, err := c.Reports(branch.ID{})
			if err != nil || len(got) != 1 || !got[0].ID.IsRoot() {
				t.Fatalf("root entry: %v %v", got, err)
			}
		})
	}
}

func TestCacheEscapedContentSurvives(t *testing.T) {
	for name, mk := range allCaches() {
		t.Run(name, func(t *testing.T) {
			c := mk(t)
			payload := []byte("<rep><msg>a &lt;b&gt; &amp; c</msg></rep>")
			depot.MustUpdate(t, c, "r=1", payload)
			got, _ := c.Reports(branch.ID{})
			if len(got) != 1 {
				t.Fatal("report lost")
			}
			if !bytes.Contains(got[0].XML, []byte("&lt;b&gt;")) {
				t.Fatalf("escaping lost: %s", got[0].XML)
			}
		})
	}
}

// TestCacheImplementationsAgreeProperty: over random insert sequences every
// cache holds the reports the stream cache holds, and dumps the stream
// cache's document byte for byte.
func TestCacheImplementationsAgreeProperty(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		caches := make(map[string]depot.Cache)
		for name, mk := range allCaches() {
			caches[name] = mk(t)
		}
		ops := int(n%40) + 5
		for i := 0; i < ops; i++ {
			depth := 1 + r.Intn(3)
			parts := make([]string, depth)
			for d := 0; d < depth; d++ {
				parts[d] = fmt.Sprintf("l%d=%s", d, names[r.Intn(len(names))])
			}
			id := branch.MustParse(strings.Join(parts, ","))
			payload := depot.ReportXMLFor("rep", fmt.Sprintf("v%d", r.Intn(10)))
			for name, c := range caches {
				if _, err := c.Update(id, payload); err != nil {
					t.Errorf("%s: Update(%s): %v", name, id, err)
					return false
				}
			}
		}
		stream := caches["stream"]
		want, _ := stream.Reports(branch.ID{})
		for name, c := range caches {
			got, _ := c.Reports(branch.ID{})
			if !depot.ReportsEqual(got, want) || c.Count() != stream.Count() {
				t.Errorf("%s holds %d reports (Count %d), stream %d (Count %d)", name, len(got), c.Count(), len(want), stream.Count())
				return false
			}
			if !bytes.Equal(c.Dump(), stream.Dump()) {
				t.Errorf("%s document:\n%s\nstream:\n%s", name, c.Dump(), stream.Dump())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCacheSharding(t *testing.T) {
	c := ablation.NewSplitCache()
	depot.MustUpdate(t, c, "r=1,vo=tg", depot.ReportXMLFor("rep", "a"))
	depot.MustUpdate(t, c, "r=1,vo=other", depot.ReportXMLFor("rep", "b"))
	if c.Shards() != 2 {
		t.Fatalf("Shards = %d, want 2", c.Shards())
	}
	got, _ := c.Reports(branch.MustParse("vo=tg"))
	if len(got) != 1 || !bytes.Contains(got[0].XML, []byte(">a<")) {
		t.Fatalf("shard query wrong: %v", got)
	}
	dump := c.Dump()
	if !bytes.Contains(dump, []byte(">a<")) || !bytes.Contains(dump, []byte(">b<")) {
		t.Fatalf("dump incomplete: %s", dump)
	}
	if !bytes.HasPrefix(dump, []byte("<cache>")) || !bytes.HasSuffix(dump, []byte("</cache>")) {
		t.Fatalf("dump not wrapped: %s", dump)
	}
}

func TestDOMCacheMemoryFootprint(t *testing.T) {
	c := ablation.NewDOMCache()
	empty := c.MemoryFootprint()
	depot.MustUpdate(t, c, "r=1,s=2", bytes.Repeat([]byte("<r>x</r>"), 1))
	if c.MemoryFootprint() <= empty {
		t.Fatal("footprint did not grow")
	}
}

// TestXMLDeclarationAccepted: a reporter that opens with an XML declaration
// (anything not built on Go's marshaller) is stored as if it had not. No
// processing instruction is stored (DESIGN.md §5d): a payload holds
// elements, attributes and text only.
func TestXMLDeclarationAccepted(t *testing.T) {
	caches := allCaches()
	caches["generic"] = func(*testing.T) depot.Cache { return ablation.NewStreamCacheGeneric() }
	body := `<rep><v>1</v><?keep this?></rep>`
	for name, mk := range caches {
		t.Run(name, func(t *testing.T) {
			plain, declared := mk(t), mk(t)
			for i, decl := range []string{
				`<?xml version="1.0"?>`,
				`<?xml version="1.0" encoding="UTF-8"?>` + "\n",
				"\n" + `<?xml version="1.0"?>` + "\n  ",
			} {
				id := fmt.Sprintf("probe=p%d,site=s,vo=tg", i)
				depot.MustUpdate(t, plain, id, []byte(body))
				depot.MustUpdate(t, declared, id, []byte(decl+body))
			}
			if got, want := declared.Dump(), plain.Dump(); !bytes.Equal(got, want) {
				t.Fatalf("dumps differ:\ndeclared %s\nplain    %s", got, want)
			}
			if bytes.Contains(plain.Dump(), []byte(`<?keep this?>`)) {
				t.Fatal("a processing instruction was stored")
			}
		})
	}
}
