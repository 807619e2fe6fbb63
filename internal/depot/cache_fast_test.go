package depot

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"inca/internal/branch"
)

// applyBoth runs an update through both splice implementations on copies of
// the same document and checks they yield semantically identical caches.
func applyBoth(t *testing.T, fastDoc, slowDoc []byte, id branch.ID, payload []byte) ([]byte, []byte) {
	t.Helper()
	fast, addedF, errF := fastSplice(fastDoc, id.Path(), payload, nil)
	slow, addedS, errS := spliceUpdate(slowDoc, id.Path(), payload)
	if (errF == nil) != (errS == nil) {
		t.Fatalf("error divergence: fast=%v slow=%v", errF, errS)
	}
	if errF != nil {
		return fastDoc, slowDoc
	}
	if addedF != addedS {
		t.Fatalf("added divergence: fast=%v slow=%v", addedF, addedS)
	}
	// Compare semantically: same stored reports, same subtree extraction.
	rf, err := collectReports(fast, branch.ID{})
	if err != nil {
		t.Fatalf("fast doc unparseable: %v\n%s", err, fast)
	}
	rs, err := collectReports(slow, branch.ID{})
	if err != nil {
		t.Fatalf("slow doc unparseable: %v\n%s", err, slow)
	}
	if !reportsEqual(rf, rs) {
		t.Fatalf("divergent contents after update %s:\nfast: %s\nslow: %s", id, fast, slow)
	}
	return fast, slow
}

func TestFastSpliceMatchesReference(t *testing.T) {
	fastDoc := []byte("<cache></cache>")
	slowDoc := []byte("<cache></cache>")
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
	}
	for _, op := range ops {
		fastDoc, slowDoc = applyBoth(t, fastDoc, slowDoc, branch.MustParse(op.id), []byte(op.payload))
	}
}

func TestFastSpliceEscapedValuesInIDs(t *testing.T) {
	// Branch values with XML-special characters must survive attribute
	// escaping and still match on replace.
	c := NewStreamCache()
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
	c := NewStreamCache()
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
		fastDoc := []byte("<cache></cache>")
		slowDoc := []byte("<cache></cache>")
		for i := 0; i < 15; i++ {
			depth := 1 + r.Intn(3)
			id := branch.ID{}
			for d := 0; d < depth; d++ {
				id = id.Child(fmt.Sprintf("l%d", depth-d), names[r.Intn(len(names))])
			}
			payload := []byte(fmt.Sprintf("<rep><v>%d &amp; stuff</v></rep>", r.Intn(100)))
			var errF, errS error
			var addF, addS bool
			fastDoc, addF, errF = fastSplice(fastDoc, id.Path(), payload, nil)
			slowDoc, addS, errS = spliceUpdate(slowDoc, id.Path(), payload)
			if errF != nil || errS != nil || addF != addS {
				return false
			}
			rf, ef := collectReports(fastDoc, branch.ID{})
			rs, es := collectReports(slowDoc, branch.ID{})
			if ef != nil || es != nil || !reportsEqual(rf, rs) {
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
		c := NewStreamCache()
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
	c := NewStreamCache()
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

func TestCollectReportsFastMatchesGeneric(t *testing.T) {
	c := NewStreamCache()
	ids := []string{
		"resource=r1,site=sdsc,vo=tg",
		"resource=r2,site=sdsc,vo=tg",
		"site=sdsc,vo=tg",
		"vo=tg",
		`path=/opt/"q"/x,site=a<b`,
	}
	for i, id := range ids {
		payload := fmt.Sprintf("<rep><v>p%d &amp; stuff</v><nested><entry>fake</entry></nested></rep>", i)
		mustUpdate(t, c, id, []byte(payload))
	}
	for _, prefix := range []string{"", "vo=tg", "site=sdsc,vo=tg", "resource=r1,site=sdsc,vo=tg", "site=none"} {
		fast, err := collectReportsFast(c.Dump(), branch.MustParse(prefix))
		if err != nil {
			t.Fatalf("fast(%q): %v", prefix, err)
		}
		slow, err := collectReports(c.Dump(), branch.MustParse(prefix))
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
			fn, err1 := wellFormedCheck(fast[i].XML)
			sn, err2 := wellFormedCheck(slow[i].XML)
			if err1 != nil || err2 != nil || fn != sn {
				t.Fatalf("prefix %q entry %d payload divergence:\nfast %s\nslow %s", prefix, i, fast[i].XML, slow[i].XML)
			}
		}
	}
}

// wellFormedCheck counts elements as a cheap semantic fingerprint.
func wellFormedCheck(data []byte) (int, error) {
	if err := wellFormed(data); err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i+1 < len(data); i++ {
		if data[i] == '<' && data[i+1] != '/' {
			n++
		}
	}
	return n, nil
}

func TestCollectReportsFastRejectsNonCanonical(t *testing.T) {
	for _, doc := range []string{
		"<cache><branch></branch></cache>",       // branch without attrs
		"<cache></branch></cache>",               // unbalanced close
		"<cache><branch name=\"a\" value=\"b\">", // unclosed
		"no tags at all",                         // no root
	} {
		if _, err := collectReportsFast([]byte(doc), branch.ID{}); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}
