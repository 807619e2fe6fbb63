package depot_test

// The paper's stream cache, held from internal/experiments/ablation like
// the other ablation caches: its own properties (canonical ordering, the
// byte-level fast splice against the tokenising reference splice) and the
// document walker it shares with this package's restorer (depot.WalkDump).
// StreamCache.Update is fastSplice, NewStreamCacheGeneric's is spliceUpdate,
// so driving the two caches side by side compares the two splices.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

func TestStreamCacheCanonicalOrdering(t *testing.T) {
	// Insertion order must not affect the document: children are kept in
	// (name, value) order.
	c1 := ablation.NewStreamCache()
	c2 := ablation.NewStreamCache()
	ids := []string{"r=b,s=2", "r=a,s=1", "r=c,s=1", "r=a,s=2"}
	for _, id := range ids {
		depot.MustUpdate(t, c1, id, depot.ReportXMLFor("rep", id))
	}
	for i := len(ids) - 1; i >= 0; i-- {
		depot.MustUpdate(t, c2, ids[i], depot.ReportXMLFor("rep", ids[i]))
	}
	if !bytes.Equal(c1.Dump(), c2.Dump()) {
		t.Fatalf("order-dependent documents:\n%s\nvs\n%s", c1.Dump(), c2.Dump())
	}
}

func TestStreamCacheGrowsWithData(t *testing.T) {
	c := ablation.NewStreamCache()
	initial := c.Size()
	payload := bytes.Repeat([]byte("x"), 500)
	depot.MustUpdate(t, c, "r=1", []byte("<rep>"+string(payload)+"</rep>"))
	if c.Size() < initial+500 {
		t.Fatalf("Size = %d after 500-byte payload", c.Size())
	}
}

func TestStreamCacheIdempotentReplaceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := ablation.NewStreamCache()
		id := branch.MustParse(fmt.Sprintf("r=%d,s=%d", r.Intn(3), r.Intn(3)))
		payload := depot.ReportXMLFor("rep", fmt.Sprintf("%d", r.Int()))
		if _, err := c.Update(id, payload); err != nil {
			return false
		}
		once := c.Dump()
		if _, err := c.Update(id, payload); err != nil {
			return false
		}
		return bytes.Equal(once, c.Dump())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// countElements tokenises data with encoding/xml: the number of elements
// of a well-formed document, an error for anything else.
func countElements(data []byte) (int, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for n := 0; ; {
		tok, err := dec.Token()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		if _, ok := tok.(xml.StartElement); ok {
			n++
		}
	}
}

func TestStreamCacheDumpIsParseable(t *testing.T) {
	c := ablation.NewStreamCache()
	for i := 0; i < 10; i++ {
		depot.MustUpdate(t, c, fmt.Sprintf("r=%d,site=s%d", i, i%3), depot.ReportXMLFor("rep", fmt.Sprint(i)))
	}
	// The dump must itself be a well-formed document.
	if _, err := countElements(c.Dump()); err != nil {
		t.Fatalf("dump not well-formed: %v\n%s", err, c.Dump())
	}
}

func TestQueryReturnsCopies(t *testing.T) {
	c := ablation.NewStreamCache()
	depot.MustUpdate(t, c, "r=1", depot.ReportXMLFor("rep", "x"))
	d1 := c.Dump()
	d1[0] = '!'
	if c.Dump()[0] == '!' {
		t.Fatal("Dump aliases internal buffer")
	}
}

// A report body may carry comments and processing instructions, which the
// canonical renderer passes through verbatim — '<' and '>' inside them
// included. The fast paths must step over them, not count them as tags.
func TestFastPathsSkipCommentsAndPIsInReports(t *testing.T) {
	awkward := []byte(`<r><!-- <entry> </branch> > --><?pi <branch> ?><v>1</v></r>`)
	fast, ref := ablation.NewStreamCache(), ablation.NewStreamCacheGeneric()
	for _, id := range []string{"probe=b,site=s,vo=tg", "probe=a,site=s,vo=tg", "probe=c,site=s,vo=tg", "probe=b,site=s,vo=tg"} {
		for _, c := range []depot.Cache{fast, ref} {
			if _, err := c.Update(branch.MustParse(id), awkward); err != nil {
				t.Fatalf("update %s: %v", id, err)
			}
		}
	}
	if !bytes.Equal(fast.Dump(), ref.Dump()) {
		t.Fatalf("fast splice diverged from the reference:\n fast %s\n  ref %s", fast.Dump(), ref.Dump())
	}
	n := 0
	err := depot.WalkDump(fast.Dump(), branch.ID{}, func(branch.ID, []byte) error { n++; return nil })
	if err != nil || n != 3 {
		t.Fatalf("WalkDump: %d reports, %v", n, err)
	}
}

// applyBoth runs an update through both splice implementations, each on its
// own cache, and checks they agree on the outcome and on the document.
func applyBoth(t *testing.T, fast, slow *ablation.StreamCache, id branch.ID, payload []byte) bool {
	t.Helper()
	addedF, errF := fast.Update(id, payload)
	addedS, errS := slow.Update(id, payload)
	if (errF == nil) != (errS == nil) {
		t.Errorf("error divergence: fast=%v slow=%v", errF, errS)
		return false
	}
	if addedF != addedS {
		t.Errorf("added divergence: fast=%v slow=%v", addedF, addedS)
		return false
	}
	if !bytes.Equal(fast.Dump(), slow.Dump()) {
		t.Errorf("divergent documents after update %s:\nfast: %s\nslow: %s", id, fast.Dump(), slow.Dump())
		return false
	}
	return true
}

func TestFastSpliceMatchesReference(t *testing.T) {
	fast, slow := ablation.NewStreamCache(), ablation.NewStreamCacheGeneric()
	ops := []struct {
		id      string
		payload string
	}{
		{"resource=r1,site=sdsc,vo=tg", "<rep><v>1</v></rep>"},
		{"resource=r2,site=sdsc,vo=tg", "<rep><v>2</v></rep>"},
		{"resource=r1,site=ncsa,vo=tg", "<rep><v>3</v></rep>"},
		{"resource=r1,site=sdsc,vo=tg", "<rep><v>replaced</v></rep>"}, // replace
		{"site=sdsc,vo=tg", "<rep><v>interior</v></rep>"},             // interior entry
		{"vo=tg", "<rep><v>shallow</v></rep>"},
		{"resource=r0,site=aaa,vo=tg", "<rep><v>sorts-first</v></rep>"},
		{"x=1,resource=r1,site=sdsc,vo=tg", "<rep><v>deeper</v></rep>"},
		{"resource=r3,site=sdsc,vo=tg", "<unclosed>"}, // refused by both
	}
	for _, op := range ops {
		if !applyBoth(t, fast, slow, branch.MustParse(op.id), []byte(op.payload)) {
			t.FailNow()
		}
	}
}

func TestFastSpliceEscapedValuesInIDs(t *testing.T) {
	// Branch values with XML-special characters must survive attribute
	// escaping and still match on replace.
	c := ablation.NewStreamCache()
	id := branch.MustParse("path=/usr/bin&lib,site=a<b")
	if _, err := c.Update(id, []byte("<rep><v>one</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(id, []byte("<rep><v>two</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("escaped-id replace created duplicate: count=%d\n%s", c.Count(), c.Dump())
	}
	got, _ := c.Reports(branch.ID{})
	if len(got) != 1 || !bytes.Contains(got[0].XML, []byte("two")) {
		t.Fatalf("reports = %+v", got)
	}
	if !got[0].ID.Equal(id) {
		t.Fatalf("id round trip: %s != %s", got[0].ID, id)
	}
}

func TestFastSplicePayloadContainingBranchTags(t *testing.T) {
	// A report whose own elements are named like cache structure must not
	// confuse the scanner.
	c := ablation.NewStreamCache()
	tricky := []byte(`<rep><branch name="fake" value="x"><entry>inner</entry></branch></rep>`)
	if _, err := c.Update(branch.MustParse("r=1"), tricky); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(branch.MustParse("r=1"), []byte("<rep><v>clean</v></rep>")); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Reports(branch.ID{})
	if len(got) != 1 || bytes.Contains(got[0].XML, []byte("fake")) {
		t.Fatalf("tricky payload mishandled: %+v", got)
	}
	// And storing it again under a sibling works.
	if _, err := c.Update(branch.MustParse("r=2"), tricky); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Reports(branch.MustParse("r=2"))
	if len(got) != 1 || !bytes.Contains(got[0].XML, []byte("fake")) {
		t.Fatalf("tricky payload lost: %+v", got)
	}
}

func TestFastSpliceRandomizedEquivalenceProperty(t *testing.T) {
	names := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fast, slow := ablation.NewStreamCache(), ablation.NewStreamCacheGeneric()
		for i := 0; i < 15; i++ {
			depth := 1 + r.Intn(3)
			id := branch.ID{}
			for d := 0; d < depth; d++ {
				id = id.Child(fmt.Sprintf("l%d", depth-d), names[r.Intn(len(names))])
			}
			payload := []byte(fmt.Sprintf("<rep><v>%d &amp; stuff</v></rep>", r.Intn(100)))
			if !applyBoth(t, fast, slow, id, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFastSplicePerformanceScalesRoughlyLinearly: a splice into the stream
// cache costs time in proportion to the document it rewrites, so a cache
// four times the size (the larger is the ~1.5 MB TeraGrid operating point)
// may cost about four times as much per update and not the sixteen a
// quadratic scan would. It compares the two with each other, not with a wall
// clock, so the race detector and a slow host move both sides alike.
func TestFastSplicePerformanceScalesRoughlyLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	perUpdate := func(size int) time.Duration {
		c := ablation.NewStreamCache()
		payload := bytes.Repeat([]byte("<d>datadata</d>"), 60) // ~900 B
		for i := 0; c.Size() < size; i++ {
			id := branch.MustParse(fmt.Sprintf("r=p%04d,s=s%d,vo=tg", i, i%10))
			if _, err := c.Update(id, append([]byte("<rep>"), append(payload, []byte("</rep>")...)...)); err != nil {
				t.Fatal(err)
			}
		}
		const n = 50
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 3; round++ { // the quietest round: noise only adds
			start := time.Now()
			for i := 0; i < n; i++ {
				id := branch.MustParse(fmt.Sprintf("r=p%04d,s=s%d,vo=tg", i, i%10))
				if _, err := c.Update(id, []byte("<rep><v>updated</v></rep>")); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start)/n)
		}
		return best
	}
	const large, factor = 1500 * 1024, 4
	small, big := perUpdate(large/factor), perUpdate(large)
	t.Logf("update on %d KB cache: %v; on %d KB: %v", large/factor/1024, small, large/1024, big)
	if big > 3*factor*small {
		t.Fatalf("update on a %dx larger cache took %v against %v: more than %dx, not linear", factor, big, small, 3*factor)
	}
}

func TestFastSpliceQuotesInBranchValues(t *testing.T) {
	// Attribute values containing quotes are escaped by the encoder as
	// &#34;; the byte scanner must still match them on replacement.
	c := ablation.NewStreamCache()
	id := branch.MustParse(`path=/opt/"quoted"/dir,site=x`)
	if _, err := c.Update(id, []byte("<rep><v>one</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(id, []byte("<rep><v>two</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("quote-valued id duplicated: %d\n%s", c.Count(), c.Dump())
	}
	got, _ := c.Reports(branch.ID{})
	if len(got) != 1 || !got[0].ID.Equal(id) {
		t.Fatalf("reports = %+v", got)
	}
}

// awkwardIDs nest entries at three depths and escape every XML-special
// character an attribute value can carry.
var awkwardIDs = []string{
	"resource=r1,site=sdsc,vo=tg",
	"resource=r2,site=sdsc,vo=tg",
	"site=sdsc,vo=tg",
	"vo=tg",
	`path=/opt/"q"/x,site=a<b`,
}

// tokenWalk is the reference for depot.WalkDump: the same walk over
// encoding/xml's tokens, every entry re-encoded token by token (the walker
// the restorer and the stream cache's generic mode ran on before WalkDump).
func tokenWalk(data []byte, prefix branch.ID) ([]depot.Stored, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var id branch.ID
	var out []depot.Stored
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "cache":
			case "branch":
				var name, value string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "name":
						name = a.Value
					case "value":
						value = a.Value
					}
				}
				id = id.Child(name, value)
			case "entry":
				var buf bytes.Buffer
				enc := xml.NewEncoder(&buf)
				for depth := 1; depth > 0; {
					inner, err := dec.Token()
					if err != nil {
						return nil, err
					}
					switch inner.(type) {
					case xml.StartElement:
						depth++
					case xml.EndElement:
						if depth--; depth == 0 {
							continue // drop the </entry>
						}
					}
					if err := enc.EncodeToken(inner); err != nil {
						return nil, err
					}
				}
				if err := enc.Flush(); err != nil {
					return nil, err
				}
				if id.HasSuffix(prefix) {
					out = append(out, depot.NewStored(id, buf.Bytes()))
				}
			default:
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			if t.Name.Local == "branch" {
				id = id.Parent()
			}
		}
	}
}

// TestWalkDumpMatchesTokenWalk: the byte-level document walk (the stream
// cache's Reports, and the restorer's reader) finds the identifiers and
// payloads encoding/xml finds in the same document.
func TestWalkDumpMatchesTokenWalk(t *testing.T) {
	c := ablation.NewStreamCache()
	for i, id := range awkwardIDs {
		payload := fmt.Sprintf("<rep><v>p%d &amp; stuff</v><nested><entry>fake</entry></nested></rep>", i)
		depot.MustUpdate(t, c, id, []byte(payload))
	}
	for _, prefix := range []string{"", "vo=tg", "site=sdsc,vo=tg", "resource=r1,site=sdsc,vo=tg", "site=none"} {
		fast, err := c.Reports(branch.MustParse(prefix))
		if err != nil {
			t.Fatalf("fast(%q): %v", prefix, err)
		}
		slow, err := tokenWalk(c.Dump(), branch.MustParse(prefix))
		if err != nil {
			t.Fatalf("slow(%q): %v", prefix, err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("prefix %q: fast %d vs slow %d", prefix, len(fast), len(slow))
		}
		// IDs must agree; payload bytes may differ in formatting between
		// raw slicing and token re-encoding, but must parse identically.
		for i := range fast {
			if !fast[i].ID.Equal(slow[i].ID) {
				t.Fatalf("prefix %q entry %d: id %s vs %s", prefix, i, fast[i].ID, slow[i].ID)
			}
			fn, err1 := countElements(fast[i].XML)
			sn, err2 := countElements(slow[i].XML)
			if err1 != nil || err2 != nil || fn != sn {
				t.Fatalf("prefix %q entry %d payload divergence:\nfast %s\nslow %s", prefix, i, fast[i].XML, slow[i].XML)
			}
		}
	}
}

// TestLoadDumpRestoresSubtreeUnderItsPrefix: what Query(prefix) answers is
// the prefix's own element without its ancestors, so LoadDump puts them
// back — the mirror of a subtree holds the reports of Reports(prefix) at
// their full identifiers, and a later Update to one of them replaces it.
func TestLoadDumpRestoresSubtreeUnderItsPrefix(t *testing.T) {
	src := depot.NewIndexedCache()
	for i, id := range awkwardIDs {
		depot.MustUpdate(t, src, id, depot.ReportXMLFor("rep", fmt.Sprint(i)))
	}
	for _, p := range []string{"", "vo=tg", "site=sdsc,vo=tg", "resource=r1,site=sdsc,vo=tg", "site=a<b"} {
		prefix := branch.MustParse(p)
		sub, ok, err := src.Query(prefix)
		if err != nil || !ok {
			t.Fatalf("Query(%q): %v %v", p, ok, err)
		}
		mirror, err := depot.LoadDump(sub, prefix)
		if err != nil {
			t.Fatalf("LoadDump(%q): %v", p, err)
		}
		want, _ := src.Reports(prefix)
		got, _ := mirror.Reports(branch.ID{})
		if len(want) == 0 || !depot.ReportsEqual(got, want) {
			t.Fatalf("prefix %q: mirror holds %v, want %v", p, got, want)
		}
		if added, err := mirror.Update(want[0].ID, depot.ReportXMLFor("rep", "again")); err != nil || added {
			t.Fatalf("prefix %q: update of %s added=%v err=%v, want a replacement", p, want[0].ID, added, err)
		}
	}
}

func TestWalkDumpRejectsNonCanonical(t *testing.T) {
	for _, doc := range []string{
		"<cache><branch></branch></cache>",                // branch without attrs
		"<cache></branch></cache>",                        // unbalanced close
		"<cache><branch name=\"a\" value=\"b\">",          // unclosed
		"<cache><branch name=\"a\" value=\"b\"/></cache>", // self-closed
		"<cache><broken",                                  // torn tag
		"no tags at all",                                  // no root
	} {
		err := depot.WalkDump([]byte(doc), branch.ID{}, func(branch.ID, []byte) error { return nil })
		if err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}
