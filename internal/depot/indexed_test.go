package depot_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

var _ depot.Cache = (*depot.IndexedCache)(nil)

// TestIndexedCacheDumpByteIdentical is the core equivalence property: for
// the same insert sequence the materialized document must match the
// paper's StreamCache byte-for-byte, including attribute escaping and
// canonical (name, value) child ordering.
func TestIndexedCacheDumpByteIdentical(t *testing.T) {
	ids := []string{
		"probe=gcc,resource=r1,site=sdsc,vo=tg",
		"probe=ssl,resource=r1,site=sdsc,vo=tg",
		"probe=gcc,resource=r2,site=sdsc,vo=tg",
		"site=ncsa,vo=tg",
		"vo=tg",
		`probe=a"b,site=x<y,vo=esc&amp`,
		"a=1",
	}
	idx := depot.NewIndexedCache()
	ref := ablation.NewStreamCache()
	for i, id := range ids {
		payload := depot.ReportXMLFor("rep", fmt.Sprintf("v%d &amp; &lt;q&gt; \"quoted\"", i))
		depot.MustUpdate(t, idx, id, payload)
		depot.MustUpdate(t, ref, id, payload)
		if got, want := idx.Dump(), ref.Dump(); !bytes.Equal(got, want) {
			t.Fatalf("after insert %d (%s):\nindexed: %s\nstream:  %s", i, id, got, want)
		}
	}
	// Replacement keeps equivalence too.
	depot.MustUpdate(t, idx, ids[0], depot.ReportXMLFor("rep", "replaced"))
	depot.MustUpdate(t, ref, ids[0], depot.ReportXMLFor("rep", "replaced"))
	if got, want := idx.Dump(), ref.Dump(); !bytes.Equal(got, want) {
		t.Fatalf("after replace:\nindexed: %s\nstream:  %s", got, want)
	}
}

// TestIndexedCacheDumpByteIdenticalProperty randomizes insert order and
// payloads across a larger identifier population.
func TestIndexedCacheDumpByteIdenticalProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		idx := depot.NewIndexedCache()
		ref := ablation.NewStreamCache()
		for op := 0; op < 60; op++ {
			id := fmt.Sprintf("probe=p%d,site=s%d,vo=v%d", r.Intn(8), r.Intn(4), r.Intn(2))
			payload := depot.ReportXMLFor("rep", fmt.Sprintf("v%d", r.Intn(10)))
			depot.MustUpdate(t, idx, id, payload)
			depot.MustUpdate(t, ref, id, payload)
		}
		got, want := idx.Dump(), ref.Dump()
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: dumps differ:\nindexed: %s\nstream:  %s", trial, got, want)
		}
		if idx.Size() != ref.Size() {
			t.Fatalf("trial %d: Size = %d, stream says %d", trial, idx.Size(), ref.Size())
		}
	}
}

// TestIndexedCacheSizeExact asserts the incrementally maintained Size is
// the exact materialized-document length at every step — including before
// any Dump call forces a materialization.
func TestIndexedCacheSizeExact(t *testing.T) {
	c := depot.NewIndexedCache()
	if got, want := c.Size(), len("<cache></cache>"); got != want {
		t.Fatalf("empty Size = %d, want %d", got, want)
	}
	ids := []string{
		"resource=r1,site=sdsc,vo=tg",
		"resource=r2,site=sdsc,vo=tg",
		"site=sdsc,vo=tg",             // interior node gains an entry
		"resource=r1,site=sdsc,vo=tg", // replacement, shorter payload below
	}
	for i, id := range ids {
		text := fmt.Sprintf("payload-%d", i)
		if i == len(ids)-1 {
			text = "x" // shrink on replace
		}
		depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", text))
		size := c.Size() // read before Dump materializes
		if dump := c.Dump(); size != len(dump) {
			t.Fatalf("after %s: Size = %d, len(Dump) = %d", id, size, len(dump))
		}
	}
}

// TestIndexedCacheGeneration asserts the generation is strictly increasing
// per successful update, unchanged by reads and by failed updates.
func TestIndexedCacheGeneration(t *testing.T) {
	c := depot.NewIndexedCache()
	if g := c.Generation(); g != 0 {
		t.Fatalf("fresh Generation = %d, want 0", g)
	}
	depot.MustUpdate(t, c, "a=1", depot.ReportXMLFor("rep", "x"))
	if g := c.Generation(); g != 1 {
		t.Fatalf("Generation after 1 update = %d, want 1", g)
	}
	// Reads do not advance the generation.
	_ = c.Dump()
	if _, _, err := c.Query(branch.MustParse("a=1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reports(branch.ID{}); err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("Generation after reads = %d, want 1", g)
	}
	// A rejected (malformed) update leaves the generation alone.
	if _, err := c.Update(branch.MustParse("a=2"), []byte("<unclosed")); err == nil {
		t.Fatal("malformed update accepted")
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("Generation after failed update = %d, want 1", g)
	}
	// Replacement still advances it (an ETag must change when bytes change).
	depot.MustUpdate(t, c, "a=1", depot.ReportXMLFor("rep", "y"))
	if g := c.Generation(); g != 2 {
		t.Fatalf("Generation after replace = %d, want 2", g)
	}
}

// TestIndexedCacheInteriorQuery asserts interior nodes (ancestors of
// stored identifiers that never received a report themselves) are
// queryable, matching StreamCache's subtree semantics.
func TestIndexedCacheInteriorQuery(t *testing.T) {
	idx := depot.NewIndexedCache()
	ref := ablation.NewStreamCache()
	for _, id := range []string{
		"probe=gcc,resource=r1,site=sdsc,vo=tg",
		"probe=ssl,resource=r1,site=sdsc,vo=tg",
	} {
		payload := depot.ReportXMLFor("rep", id)
		depot.MustUpdate(t, idx, id, payload)
		depot.MustUpdate(t, ref, id, payload)
	}
	for _, q := range []string{"vo=tg", "site=sdsc,vo=tg", "resource=r1,site=sdsc,vo=tg"} {
		id := branch.MustParse(q)
		got, ok, err := idx.Query(id)
		if err != nil || !ok {
			t.Fatalf("Query(%s): ok=%v err=%v", q, ok, err)
		}
		want, ok, err := ref.Query(id)
		if err != nil || !ok {
			t.Fatalf("stream Query(%s): ok=%v err=%v", q, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Query(%s):\nindexed: %s\nstream:  %s", q, got, want)
		}
	}
	if _, ok, _ := idx.Query(branch.MustParse("site=nowhere,vo=tg")); ok {
		t.Fatal("Query for absent subtree reported ok")
	}
}

// TestIndexedCacheReportsOrder asserts Reports returns entries in
// canonical document order (entry before children, children in
// (name, value) order), agreeing with StreamCache.
func TestIndexedCacheReportsOrder(t *testing.T) {
	idx := depot.NewIndexedCache()
	ref := ablation.NewStreamCache()
	ids := []string{
		"site=b,vo=tg",
		"vo=tg",
		"site=a,vo=tg",
		"probe=z,site=a,vo=tg",
		"probe=a,site=a,vo=tg",
	}
	for _, id := range ids {
		payload := depot.ReportXMLFor("rep", id)
		depot.MustUpdate(t, idx, id, payload)
		depot.MustUpdate(t, ref, id, payload)
	}
	for _, prefix := range []string{"", "vo=tg", "site=a,vo=tg"} {
		var p branch.ID
		if prefix != "" {
			p = branch.MustParse(prefix)
		}
		got, err := idx.Reports(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Reports(p)
		if err != nil {
			t.Fatal(err)
		}
		if !depot.ReportsEqual(got, want) {
			t.Fatalf("Reports(%q) disagree:\nindexed: %v\nstream:  %v", prefix, got, want)
		}
	}
}

// TestIndexedCacheReadsKeepTheirBytes holds the read-only contract
// (depot.Cache): what Reports, Dump and a root Query return is shared with
// the cache, and keeps its bytes after a later Update of the same branch
// and after the document is materialized again. An exact Query builds its
// answer, so writing into it leaves the index alone.
func TestIndexedCacheReadsKeepTheirBytes(t *testing.T) {
	c := depot.NewIndexedCache()
	depot.MustUpdate(t, c, "a=1", depot.ReportXMLFor("rep", "x"))
	depot.MustUpdate(t, c, "b=1,a=1", depot.ReportXMLFor("rep", "y"))
	dump := c.Dump()
	root, ok, err := c.Query(branch.ID{})
	if err != nil || !ok || &root[0] != &dump[0] {
		t.Fatalf("root Query is not the materialized document: %v %v", ok, err)
	}
	stored, err := c.Reports(branch.ID{})
	if err != nil || len(stored) != 2 {
		t.Fatalf("Reports: %d, %v", len(stored), err)
	}
	wantDump := bytes.Clone(dump)
	var want [][]byte
	for _, st := range stored {
		want = append(want, bytes.Clone(st.XML), bytes.Clone(st.Attr))
	}

	depot.MustUpdate(t, c, "a=1", depot.ReportXMLFor("rep", "z"))
	if again := c.Dump(); bytes.Equal(again, wantDump) {
		t.Fatal("the update did not reach the document")
	}
	depot.MustUpdate(t, c, "b=1,a=1", depot.ReportXMLFor("rep", "w"))
	c.Dump()

	if !bytes.Equal(dump, wantDump) {
		t.Fatalf("an earlier Dump changed: %q, was %q", dump, wantDump)
	}
	for i, st := range stored {
		if !bytes.Equal(st.XML, want[2*i]) || !bytes.Equal(st.Attr, want[2*i+1]) {
			t.Fatalf("an earlier Reports entry changed: %q %q, was %q %q", st.XML, st.Attr, want[2*i], want[2*i+1])
		}
	}
	if string(stored[1].Attr) != "b=1,a=1" {
		t.Fatalf("attribute %q", stored[1].Attr)
	}

	sub, ok, err := c.Query(branch.MustParse("a=1"))
	if err != nil || !ok {
		t.Fatal("Query failed")
	}
	sub[0] = '!'
	if sub2, _, _ := c.Query(branch.MustParse("a=1")); sub2[0] != '<' {
		t.Fatal("Query shares memory with the index")
	}
}

// TestIndexedCacheSharedReadsRace runs readers that keep what Reports and
// Dump hand them beside writers that replace the same entries; under the
// race detector any write into a slice a reader holds is reported, and
// without it the held bytes must still equal the reader's copy.
func TestIndexedCacheSharedReadsRace(t *testing.T) {
	c := depot.NewIndexedCache()
	ids := []string{"r=1,s=a", "r=2,s=a", "r=1,s=b"}
	for _, id := range ids {
		depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", "0"))
	}
	const writes = 300
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				id := branch.MustParse(ids[(i+w)%len(ids)])
				if _, err := c.Update(id, depot.ReportXMLFor("rep", fmt.Sprint(w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type held struct{ got, copied []byte }
			var keep []held
			for i := 0; i < writes/10; i++ {
				d := c.Dump()
				keep = append(keep, held{d, bytes.Clone(d)})
				stored, err := c.Reports(branch.MustParse("s=a"))
				if err != nil {
					errs <- err
					return
				}
				for _, st := range stored {
					keep = append(keep, held{st.XML, bytes.Clone(st.XML)}, held{st.Attr, bytes.Clone(st.Attr)})
				}
			}
			for _, h := range keep {
				if !bytes.Equal(h.got, h.copied) {
					errs <- fmt.Errorf("held bytes changed: %q, was %q", h.got, h.copied)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexedCacheLoadDumpRoundTrip asserts a materialized document can be
// reloaded — i.e. the derived artifact is a valid canonical cache document,
// not just byte-similar.
func TestIndexedCacheLoadDumpRoundTrip(t *testing.T) {
	c := depot.NewIndexedCache()
	for i := 0; i < 10; i++ {
		depot.MustUpdate(t, c, fmt.Sprintf("r=%d,site=s%d", i, i%3), depot.ReportXMLFor("rep", fmt.Sprint(i)))
	}
	loaded, err := depot.LoadDump(c.Dump(), branch.ID{})
	if err != nil {
		t.Fatalf("LoadDump(indexed Dump): %v", err)
	}
	if !bytes.Equal(loaded.Dump(), c.Dump()) {
		t.Fatal("round-trip through LoadDump changed the document")
	}
}
