package federation

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
	"inca/internal/xmlscan"
)

// reportsDoc renders a cache's reports the way the querying interface's
// /reports does.
func reportsDoc(c depot.Cache) []byte {
	stored, err := c.Reports(branch.ID{})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	buf.WriteString("<reports>")
	for _, st := range stored {
		buf.WriteString(`<stored branch="`)
		xml.EscapeText(&buf, []byte(st.ID.String()))
		buf.WriteString(`">`)
		buf.Write(st.XML)
		buf.WriteString("</stored>")
	}
	buf.WriteString("</reports>")
	return buf.Bytes()
}

// fixture is one branch population stored on a single depot and split over
// a ring's shards.
type fixture struct {
	ring   *Ring
	single depot.Cache
	shards map[string]depot.Cache
}

func newFixture(members, depth int) *fixture {
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("s%d:1", i)
	}
	fx := &fixture{
		ring:   NewRing(names, RingOptions{Depth: depth}),
		single: depot.NewIndexedCache(),
		shards: map[string]depot.Cache{},
	}
	for _, n := range names {
		fx.shards[n] = depot.NewIndexedCache()
	}
	return fx
}

// store puts the report on the single depot and on the shard owning id.
func (fx *fixture) store(id branch.ID, xml string) {
	fx.storeOn(fx.ring.Owner(id), id, xml)
	if _, err := fx.single.Update(id, []byte(xml)); err != nil {
		panic(err)
	}
}

// storeOn puts the report on one named shard only.
func (fx *fixture) storeOn(shard string, id branch.ID, xml string) {
	if _, err := fx.shards[shard].Update(id, []byte(xml)); err != nil {
		panic(err)
	}
}

// docs returns the shard documents in ring-member order, shards without
// data at the branch left out, as the query tier assembles them.
func (fx *fixture) docs(id branch.ID, reports bool) []ShardDoc {
	var out []ShardDoc
	for _, name := range fx.ring.Members() {
		c := fx.shards[name]
		if reports {
			out = append(out, ShardDoc{Shard: name, Body: reportsDoc(c)})
			continue
		}
		body, ok, err := c.Query(id)
		if err != nil {
			panic(err)
		}
		if ok {
			out = append(out, ShardDoc{Shard: name, Body: body})
		}
	}
	return out
}

// awkwardReport carries everything a report body may: comments, a
// processing instruction, CDATA (the depot re-renders it as escaped
// text), escaped markup, attributes holding '>' and elements named like
// the cache's own.
const awkwardReport = `<r a="1&gt;2"><!-- <entry> </branch> --><?pi <branch>?>` +
	`<entry><branch name="x" value="y">in &lt;entry&gt;</branch></entry>` +
	`<![CDATA[<stored> & </r>]]><stored/></r>`

// populate stores a mix that exercises every merge case: many sites under
// one VO (shared interior node), a second VO, an entry on the root and on
// the shared node, deep identifiers, and attribute values needing escapes.
func (fx *fixture) populate(sites int) {
	root := branch.ID{}
	vo := root.Child("vo", "tg")
	fx.store(root, "<r>root entry</r>")
	fx.store(vo, "<r>vo entry</r>")
	for s := 0; s < sites; s++ {
		site := vo.Child("site", fmt.Sprintf("s%02d", s))
		if s%3 == 0 {
			fx.store(site, fmt.Sprintf("<r>site %d</r>", s))
		}
		for p := 0; p < 3; p++ {
			fx.store(site.Child("probe", fmt.Sprintf("p%d", p)), fmt.Sprintf("<r><v>%d.%d</v></r>", s, p))
		}
		fx.store(site.Child("probe", "deep").Child("dest", "d1").Child("kind", "k"), awkwardReport)
	}
	odd := root.Child("vo", `a&b"<'>`)
	fx.store(odd.Child("site", `x&amp;"y'`).Child("probe", "<p>"), awkwardReport)
	fx.store(odd.Child("site", "plain"), "<r/>")
}

func TestMergeMatchesOracleAndSingleDepot(t *testing.T) {
	for _, members := range []int{1, 2, 4} {
		for _, depth := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("shards%d-depth%d", members, depth), func(t *testing.T) {
				fx := newFixture(members, depth)
				fx.populate(12)
				queries := []branch.ID{{}, branch.ID{}.Child("vo", "tg"), branch.ID{}.Child("vo", `a&b"<'>`)}
				for _, id := range queries {
					docs := fx.docs(id, false)
					got, err := MergeCache(docs, id, fx.ring)
					if err != nil {
						t.Fatalf("MergeCache(%s): %v", id, err)
					}
					want, err := oracleMergeCache(docs, id, fx.ring)
					if err != nil {
						t.Fatalf("oracle(%s): %v", id, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("MergeCache(%s) differs from the oracle:\n got %s\nwant %s", id, got, want)
					}
					truth, _, _ := fx.single.Query(id)
					if !bytes.Equal(got, truth) {
						t.Fatalf("MergeCache(%s) differs from the single depot:\n got %s\nwant %s", id, got, truth)
					}
					plan, err := PlanCache(docs, id, fx.ring)
					if err != nil || plan.Len != len(truth) {
						t.Fatalf("PlanCache(%s): len %d err %v, want %d", id, plan.Len, err, len(truth))
					}
					var w bytes.Buffer
					if n, err := plan.WriteTo(&w); err != nil || int(n) != plan.Len || !bytes.Equal(w.Bytes(), truth) {
						t.Fatalf("Plan.WriteTo(%s) wrote %d bytes, err %v", id, n, err)
					}
				}
				docs := fx.docs(branch.ID{}, true)
				got, err := MergeReports(docs, fx.ring)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleMergeReports(docs, fx.ring)
				if err != nil {
					t.Fatal(err)
				}
				if truth := reportsDoc(fx.single); !bytes.Equal(got, want) || !bytes.Equal(got, truth) {
					t.Fatalf("MergeReports:\n   got %s\noracle %s\nsingle %s", got, want, truth)
				}
				checkParseReports(t, got)
			})
		}
	}
}

// indexedDocs is docs for a /cache read, each body with the child index
// its shard renders with it, as a router that asks for one gathers them.
func (fx *fixture) indexedDocs(id branch.ID) []ShardDoc {
	depth := IndexDepth(id, fx.ring)
	var out []ShardDoc
	for _, name := range fx.ring.Members() {
		body, ends, ok, err := fx.shards[name].(*depot.IndexedCache).QueryIndex(id, depth)
		if err != nil {
			panic(err)
		}
		if ok {
			out = append(out, ShardDoc{Shard: name, Body: body, Index: string(AppendIndex(nil, depth, ends))})
		}
	}
	return out
}

// scanIndex is the honest child index of body: the ends SkipSubtree finds
// for the <branch> elements depth levels below the root, the containers
// above them walked as splitNode walks them. It stops at the first thing
// it cannot walk, so for a malformed document it may be short.
func scanIndex(body []byte, depth int) string {
	var ends []int
	var walk func(root xmlscan.Tag, level int) (int, bool)
	walk = func(root xmlscan.Tag, level int) (int, bool) {
		if root.Kind == xmlscan.Empty {
			return root.End, true
		}
		for pos := root.End; ; {
			t, ok, err := xmlscan.Next(body, pos)
			if err != nil || !ok {
				return 0, false
			}
			pos = t.End
			if t.Kind == xmlscan.Close {
				return pos, true
			}
			if t.Kind != xmlscan.Open && t.Kind != xmlscan.Empty {
				continue
			}
			isBranch := string(xmlscan.LocalName(t.Name)) == "branch"
			if isBranch && level+1 < depth {
				pos, ok = walk(t, level+1)
			} else {
				pos, err = xmlscan.SkipSubtree(body, t)
				ok = err == nil
			}
			if !ok {
				return 0, false
			}
			if isBranch && level+1 == depth {
				ends = append(ends, pos)
			}
		}
	}
	if root, ok, err := xmlscan.Next(body, 0); err == nil && ok && (root.Kind == xmlscan.Open || root.Kind == xmlscan.Empty) {
		walk(root, 0)
	}
	return string(AppendIndex(nil, depth, ends))
}

// A shard records its child index while it renders the body, so the index
// it sends is the one a scan of that body finds, at every depth.
func TestShardIndexMatchesScan(t *testing.T) {
	fx := newFixture(2, 2)
	fx.populate(12)
	nonEmpty := 0
	for _, c := range append([]depot.Cache{fx.single}, fx.shards[fx.ring.Members()[0]]) {
		for _, id := range []branch.ID{{}, branch.ID{}.Child("vo", "tg"), branch.ID{}.Child("vo", "tg").Child("site", "s00")} {
			for depth := 0; depth <= 5; depth++ {
				body, ends, ok, err := c.(*depot.IndexedCache).QueryIndex(id, depth)
				want, _, _ := c.Query(id)
				if err != nil || !ok || !bytes.Equal(body, want) {
					t.Fatalf("QueryIndex(%s, %d): ok %v, err %v, body differs from Query's: %v", id, depth, ok, err, !bytes.Equal(body, want))
				}
				if got, scan := string(AppendIndex(nil, depth, ends)), scanIndex(body, depth); depth > 0 && got != scan {
					t.Fatalf("QueryIndex(%s, %d) = %s, a scan finds %s", id, depth, got, scan)
				}
				if len(ends) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no depth had any <branch> element")
	}
}

// With every shard's own index the plan is the single depot's document,
// and no document is scanned; without one, every document is.
func TestPlanCacheReadsShardIndex(t *testing.T) {
	for _, members := range []int{2, 4} {
		for _, depth := range []int{1, 2, 3} {
			fx := newFixture(members, depth)
			fx.populate(12)
			for _, id := range []branch.ID{{}, branch.ID{}.Child("vo", "tg"), branch.ID{}.Child("vo", `a&b"<'>`)} {
				truth, _, _ := fx.single.Query(id)
				for _, indexed := range []bool{true, false} {
					docs := fx.docs(id, false)
					if indexed {
						docs = fx.indexedDocs(id)
					}
					plan, err := PlanCache(docs, id, fx.ring)
					if err != nil || !bytes.Equal(plan.Bytes(), truth) {
						t.Fatalf("shards%d-depth%d %s indexed %v: err %v, plan differs from the single depot", members, depth, id, indexed, err)
					}
					scans := 0
					if !indexed && len(docs) > 1 {
						scans = len(docs)
					}
					if plan.Scans != scans {
						t.Fatalf("shards%d-depth%d %s indexed %v: %d documents scanned, want %d", members, depth, id, indexed, plan.Scans, scans)
					}
				}
			}
		}
	}
}

// An index that does not fit its document is refused, whatever is wrong
// with it, and the document is split by scan to the same answer.
func TestPlanCacheRefusesBadIndex(t *testing.T) {
	fx := newFixture(2, 2)
	fx.populate(12)
	truth := fx.single.Dump()
	docs := fx.indexedDocs(branch.ID{})
	if len(docs) != 2 {
		t.Fatal("ring put every site on one shard")
	}
	// The lies go into a document holding a site with an entry of its own:
	// an end just past that </entry> is inside the site and in order, and
	// only the </branch> check refuses it.
	doc, site, afterEntry := -1, -1, 0
	for d := 0; d < len(docs) && doc < 0; d++ {
		body, k := docs[d].Body, -1
		for pos := 0; ; {
			i := bytes.Index(body[pos:], []byte(`<branch name="site"`))
			if i < 0 {
				break
			}
			k++
			pos += i + bytes.IndexByte(body[pos+i:], '>') + 1
			if bytes.HasPrefix(body[pos:], []byte("<entry>")) {
				doc, site, afterEntry = d, k, pos+bytes.Index(body[pos:], []byte("</entry>"))+len("</entry>")
				break
			}
		}
	}
	if doc < 0 {
		t.Fatal("no shard holds a site with an entry")
	}
	good := docs[doc].Index
	head, list, _ := strings.Cut(good, ":")
	entries := strings.Split(list, ",")
	if len(entries) < 2 {
		t.Fatalf("index %q too short to corrupt", good)
	}
	last := len(entries) - 1
	with := func(i int, v string) string {
		e := append([]string(nil), entries...)
		e[i] = v
		return head + ":" + strings.Join(e, ",")
	}
	bump := func(v string, by int) string {
		var n int
		fmt.Sscan(v, &n)
		return fmt.Sprint(n + by)
	}
	for name, index := range map[string]string{
		"none":                "",
		"another depth":       "3:" + list,
		"no depth":            list,
		"one entry short":     head + ":" + strings.Join(entries[:last], ","),
		"one entry over":      good + "," + bump(entries[last], 10),
		"past the end":        with(last, fmt.Sprint(len(docs[doc].Body)+9)),
		"past an </entry>":    with(site, fmt.Sprint(afterEntry)),
		"before the open tag": with(0, "5"),
		"inside a tag":        with(0, bump(entries[0], -1)),
		"at an earlier close": with(1, entries[0]),
		"swapped":             with(0, entries[1]),
		"empty entry":         with(0, ""),
		"trailing comma":      good + ",",
		"not a number":        with(0, "x"),
		"negative":            with(0, "-1"),
		"huge":                with(0, "99999999999999999999999999"),
		"empty list":          head + ":",
	} {
		bad := append([]ShardDoc(nil), docs...)
		bad[doc].Index = index
		plan, err := PlanCache(bad, branch.ID{}, fx.ring)
		if err != nil || !bytes.Equal(plan.Bytes(), truth) {
			t.Fatalf("%s (%q): err %v, plan differs from the single depot", name, index, err)
		}
		if plan.Scans != 1 {
			t.Fatalf("%s (%q): %d documents scanned, want 1", name, index, plan.Scans)
		}
	}
}

func checkParseReports(t *testing.T, body []byte) {
	t.Helper()
	got, err := ParseReports(body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleParseReports(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ParseReports: %d reports, oracle %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].ID.Equal(want[i].ID) || !bytes.Equal(got[i].XML, want[i].XML) {
			t.Fatalf("report %d = %s %q, oracle %s %q", i, got[i].ID, got[i].XML, want[i].ID, want[i].XML)
		}
	}
}

// A rebalance leaves a stale copy of a routed subtree on its old owner;
// the merge must keep the ring owner's copy, wherever the duplicate sits.
func TestMergeOwnerWinsOverRebalanceDuplicates(t *testing.T) {
	fx := newFixture(4, 2)
	fx.populate(8)
	vo := branch.ID{}.Child("vo", "tg")
	for s := 0; s < 8; s++ {
		probe := vo.Child("site", fmt.Sprintf("s%02d", s)).Child("probe", "p1")
		for _, name := range fx.ring.Members() {
			if name != fx.ring.Owner(probe) {
				fx.storeOn(name, probe, "<r>stale copy</r>")
				break
			}
		}
	}
	// Above the affinity depth the exact branch is routed too: a stale
	// entry on a shared node loses to the owner's.
	for _, name := range fx.ring.Members() {
		if name != fx.ring.Owner(vo) {
			fx.storeOn(name, vo, "<r>stale vo entry</r>")
		}
	}
	for _, id := range []branch.ID{{}, vo} {
		docs := fx.docs(id, false)
		got, err := MergeCache(docs, id, fx.ring)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleMergeCache(docs, id, fx.ring)
		truth, _, _ := fx.single.Query(id)
		if !bytes.Equal(got, want) || !bytes.Equal(got, truth) {
			t.Fatalf("MergeCache(%s) with duplicates:\n   got %s\noracle %s\nsingle %s", id, got, want, truth)
		}
	}
	docs := fx.docs(branch.ID{}, true)
	got, err := MergeReports(docs, fx.ring)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleMergeReports(docs, fx.ring)
	if truth := reportsDoc(fx.single); !bytes.Equal(got, want) || !bytes.Equal(got, truth) {
		t.Fatalf("MergeReports with duplicates:\n   got %s\noracle %s\nsingle %s", got, want, truth)
	}
}

// Adjacent slices of one body coalesce: a shard that owns a run of
// neighbouring sites contributes one part for the run, not one per site.
func TestPlanCoalescesAdjacentSlices(t *testing.T) {
	fx := newFixture(2, 2)
	fx.populate(16)
	docs := fx.docs(branch.ID{}, false)
	plan, err := PlanCache(docs, branch.ID{}, fx.ring)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, part := range plan.Parts {
		n += len(part)
	}
	if n != plan.Len {
		t.Fatalf("plan.Len = %d, parts hold %d bytes", plan.Len, n)
	}
	for i := 1; i < len(plan.Parts); i++ {
		prev, next := plan.Parts[i-1], plan.Parts[i]
		if cap(prev) > len(prev) && &prev[:len(prev)+1][len(prev)] == &next[0] {
			t.Fatalf("parts %d and %d are adjacent in one body but were not coalesced", i-1, i)
		}
	}
}

const (
	goodCache   = `<cache><branch name="vo" value="tg"><branch name="site" value="a"><entry><r></r></entry></branch></branch></cache>`
	goodReports = `<reports><stored branch="site=a,vo=tg"><r></r></stored></reports>`
)

// Malformed shard documents must be refused — a 502 on the wire — never
// panic and never produce bytes. Every case is merged both as the first
// and as the second document beside a good one.
func TestMergeRejectsMalformed(t *testing.T) {
	ring := NewRing([]string{"s0:1", "s1:1"}, RingOptions{Depth: 2})
	cache := map[string]string{
		"empty":                ``,
		"text only":            `cache`,
		"leading space":        ` <cache></cache>`,
		"declaration first":    `<?xml version="1.0"?><cache></cache>`,
		"truncated root":       `<cache`,
		"truncated child":      `<cache><branch name="vo" value="tg"><entry><r>`,
		"root not closed":      `<cache><branch name="vo" value="tg"></branch>`,
		"mismatched close":     `<cache><branch name="vo" value="tg"><entry><r></x></entry></branch></cache>`,
		"mismatched root":      `<cache><branch name="vo" value="tg"></branch></cash>`,
		"crossed closes":       `<cache><branch name="vo" value="tg"><entry></branch></entry></cache>`,
		"stray text":           `<cache>stray<branch name="vo" value="tg"></branch></cache>`,
		"stray text at end":    `<cache><branch name="vo" value="tg"></branch>stray</cache>`,
		"stray cdata":          `<cache><![CDATA[stray]]></cache>`,
		"stray text in shared": `<cache><branch name="vo" value="tg">stray</branch></cache>`,
		"two entries":          `<cache><entry><r></r></entry><entry><r></r></entry></cache>`,
		"two entries shared":   `<cache><branch name="vo" value="tg"><entry><r></r></entry><entry><r></r></entry></branch></cache>`,
		"foreign child":        `<cache><stored></stored></cache>`,
		"foreign child shared": `<cache><branch name="vo" value="tg"><cache></cache></branch></cache>`,
		"unterminated comment": `<cache><branch name="vo" value="tg"><entry><r><!-- no end</r></entry></branch></cache>`,
		"unterminated pi":      `<cache><branch name="vo" value="tg"><entry><r><?pi no end</r></entry></branch></cache>`,
		"unterminated cdata":   `<cache><branch name="vo" value="tg"><entry><r><![CDATA[no end</r></entry></branch></cache>`,
		"unterminated attr":    `<cache><branch name="vo" value="tg></branch></cache>`,
		"bad <!- sequence":     `<cache><!-x--></cache>`,
	}
	for name, doc := range cache {
		for _, docs := range [][]ShardDoc{
			{{Shard: "s0:1", Body: []byte(doc)}, {Shard: "s1:1", Body: []byte(goodCache)}},
			{{Shard: "s0:1", Body: []byte(goodCache)}, {Shard: "s1:1", Body: []byte(doc)}},
		} {
			if out, err := MergeCache(docs, branch.ID{}, ring); err == nil || out != nil {
				t.Errorf("cache %q: MergeCache = %q, %v", name, out, err)
			}
			if p, err := PlanCache(docs, branch.ID{}, ring); err == nil || p.Len != 0 || p.Parts != nil {
				t.Errorf("cache %q: PlanCache = %d bytes, %v", name, p.Len, err)
			}
			if _, err := oracleMergeCache(docs, branch.ID{}, ring); err == nil {
				t.Errorf("cache %q: the oracle accepts it", name)
			}
		}
	}
	reports := map[string]string{
		"empty":                ``,
		"not reports":          `<cache></cache>`,
		"leading space":        ` <reports></reports>`,
		"truncated":            `<reports><stored branch="site=a,vo=tg"><r>`,
		"not closed":           `<reports><stored branch="site=a,vo=tg"><r></r></stored>`,
		"mismatched close":     `<reports><stored branch="site=a,vo=tg"><r></x></stored></reports>`,
		"mismatched root":      `<reports></report>`,
		"foreign child":        `<reports><entry></entry></reports>`,
		"bad branch":           `<reports><stored branch="no-equals"><r></r></stored></reports>`,
		"unterminated comment": `<reports><stored branch="site=a,vo=tg"><r><!-- </r></stored></reports>`,
		"unterminated attr":    `<reports><stored branch="site=a,vo=tg><r></r></stored></reports>`,
	}
	for name, doc := range reports {
		if out, err := ParseReports([]byte(doc)); err == nil || out != nil {
			t.Errorf("reports %q: ParseReports = %v, %v", name, out, err)
		}
		for _, docs := range [][]ShardDoc{
			{{Shard: "s0:1", Body: []byte(doc)}, {Shard: "s1:1", Body: []byte(goodReports)}},
			{{Shard: "s0:1", Body: []byte(goodReports)}, {Shard: "s1:1", Body: []byte(doc)}},
		} {
			if out, err := MergeReports(docs, ring); err == nil || out != nil {
				t.Errorf("reports %q: MergeReports = %q, %v", name, out, err)
			}
			if _, err := oracleMergeReports(docs, ring); err == nil {
				t.Errorf("reports %q: the oracle accepts it", name)
			}
		}
	}
	// A self-closed <stored/> splits but has no report to recover.
	if out, err := ParseReports([]byte(`<reports><stored branch="a=b"/></reports>`)); err == nil {
		t.Errorf("ParseReports accepted a self-closed stored element: %v", out)
	}
}

// The oracle only opened a shared interior node when two shards held it;
// a defect inside a node only one shard holds passes through verbatim.
func TestMergeOpensSharedNodesLazily(t *testing.T) {
	ring := NewRing([]string{"s0:1", "s1:1"}, RingOptions{Depth: 2})
	odd := `<cache><branch name="vo" value="solo">stray<other></other></branch></cache>`
	docs := []ShardDoc{{Shard: "s0:1", Body: []byte(odd)}, {Shard: "s1:1", Body: []byte(goodCache)}}
	got, err := MergeCache(docs, branch.ID{}, ring)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleMergeCache(docs, branch.ID{}, ring)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("got %s\noracle %s (%v)", got, want, err)
	}
}

// --- fuzzing ---

// fuzzSeeds are the canonical starting points; testdata/fuzz holds the
// named cases — non-canonical renderings encoding/xml accepts, rebalance
// duplicates, markup inside reports, and the malformed documents.
var fuzzSeeds = [][2]string{
	{goodCache, `<cache><entry><r></r></entry><branch name="vo" value="tg"><entry><r>x</r></entry><branch name="site" value="b"><entry>` + awkwardReport + `</entry></branch></branch></cache>`},
	{goodReports, `<reports><stored branch="site=b,vo=tg">` + awkwardReport + `</stored><stored branch="site=a,vo=tg"><r>dup</r></stored></reports>`},
}

// sameAnswer reports whether two merges gave the same bytes or failed with
// the same error.
func sameAnswer(a []byte, aErr error, b []byte, bErr error) bool {
	if (aErr == nil) != (bErr == nil) {
		return false
	}
	return aErr == nil && bytes.Equal(a, b) || aErr != nil && aErr.Error() == bErr.Error()
}

// FuzzMergeCache holds the merge to its contract on arbitrary bytes:
// whatever the encoding/xml oracle accepts merges to identical bytes, and
// nothing panics. The honest child index of each document — the ends a
// scan finds — changes no answer; an arbitrary index on the first document
// panics nowhere, and one the split refuses gives the answer of no index.
func FuzzMergeCache(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s[0]), []byte(s[1]), uint8(2), false, "")
		f.Add([]byte(s[1]), []byte(s[0]), uint8(1), true, "")
		f.Add([]byte(s[0]), []byte(s[1]), uint8(1), false, scanIndex([]byte(s[0]), 2))
		f.Add([]byte(s[0]), []byte(s[1]), uint8(1), false, "2:50,97")
	}
	f.Fuzz(func(t *testing.T, a, b []byte, depth uint8, subtree bool, index string) {
		ring := NewRing([]string{"s0:1", "s1:1"}, RingOptions{Depth: int(depth%4) + 1})
		id := branch.ID{}
		if subtree {
			id = id.Child("vo", "tg")
		}
		docs := []ShardDoc{{Shard: "s0:1", Body: a}, {Shard: "s1:1", Body: b}}
		got, err := MergeCache(docs, id, ring)

		d := IndexDepth(id, ring)
		honest := []ShardDoc{{Shard: "s0:1", Body: a, Index: scanIndex(a, d)}, {Shard: "s1:1", Body: b, Index: scanIndex(b, d)}}
		if h, hErr := MergeCache(honest, id, ring); !sameAnswer(h, hErr, got, err) {
			t.Fatalf("%q + %q with their own indexes %q, %q:\n   got %q (%v)\nno index %q (%v)", a, b, honest[0].Index, honest[1].Index, h, hErr, got, err)
		}
		fuzzed := []ShardDoc{{Shard: "s0:1", Body: a, Index: index}, {Shard: "s1:1", Body: b}}
		l, lErr := MergeCache(fuzzed, id, ring)
		if _, indexed, _ := splitDoc(fuzzed, 0, ring.depth-1-id.Depth()); !indexed && !sameAnswer(l, lErr, got, err) {
			t.Fatalf("%q + %q with the refused index %q:\n   got %q (%v)\nno index %q (%v)", a, b, index, l, lErr, got, err)
		}

		want, oracleErr := oracleMergeCache(docs, id, ring)
		if oracleErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("the oracle merges %q + %q, MergeCache: %v", a, b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q + %q:\n   got %q\noracle %q", a, b, got, want)
		}
	})
}

// FuzzParseReports does the same for /reports bodies, parsed and merged.
func FuzzParseReports(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s[0]), []byte(s[1]))
		f.Add([]byte(s[1]), []byte(s[0]))
	}
	ring := NewRing([]string{"s0:1", "s1:1"}, RingOptions{Depth: 2})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got, err := ParseReports(a)
		want, oracleErr := oracleParseReports(a)
		if oracleErr == nil {
			if err != nil {
				t.Fatalf("the oracle parses %q, ParseReports: %v", a, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%q: %d reports, oracle %d", a, len(got), len(want))
			}
			for i := range want {
				if !got[i].ID.Equal(want[i].ID) || !bytes.Equal(got[i].XML, want[i].XML) {
					t.Fatalf("%q: report %d = %s %q, oracle %s %q", a, i, got[i].ID, got[i].XML, want[i].ID, want[i].XML)
				}
			}
		}
		docs := []ShardDoc{{Shard: "s0:1", Body: a}, {Shard: "s1:1", Body: b}}
		merged, err := MergeReports(docs, ring)
		wantMerged, oracleErr := oracleMergeReports(docs, ring)
		if oracleErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("the oracle merges %q + %q, MergeReports: %v", a, b, err)
		}
		if !bytes.Equal(merged, wantMerged) {
			t.Fatalf("%q + %q:\n   got %q\noracle %q", a, b, merged, wantMerged)
		}
	})
}

// --- benchmarks ---

// benchDocs builds the benchmark of record's working set — 32 sites × 32
// probes of 851-byte reports under one VO — split over two shards.
func benchDocs(b *testing.B, reports bool) ([]ShardDoc, *Ring, int) {
	fx := newFixture(2, 2)
	render := func(pad int) string {
		r := report.New("bench.probe", "1.0", "bench.example.org", time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC))
		r.Body = report.Branch("bench", "probe",
			report.Branch("statistic", "sample", report.Leaf("seq", "00000000"), report.Leaf("units", "count")),
			report.Leaf("sent", "0000000000000000000"),
			report.Leaf("pad", strings.Repeat("x", pad)))
		data, err := report.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return string(data)
	}
	report := render(1 + 851 - len(render(1)))
	vo := branch.ID{}.Child("vo", "bench")
	for s := 0; s < 32; s++ {
		site := vo.Child("site", fmt.Sprintf("s%02d", s))
		for p := 0; p < 32; p++ {
			fx.store(site.Child("probe", fmt.Sprintf("p%02d", p)), report)
		}
	}
	docs := fx.docs(branch.ID{}, reports)
	if len(docs) != 2 {
		b.Fatalf("ring put every site on one shard")
	}
	n := 0
	for _, d := range docs {
		n += len(d.Body)
	}
	return docs, fx.ring, n
}

var benchSink int

func BenchmarkMergeCache(b *testing.B) {
	docs, ring, n := benchDocs(b, false)
	indexed := make([]ShardDoc, len(docs))
	for i, d := range docs {
		d.Index = scanIndex(d.Body, IndexDepth(branch.ID{}, ring))
		indexed[i] = d
	}
	b.Run("plan", func(b *testing.B) {
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := PlanCache(docs, branch.ID{}, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += p.Len
		}
	})
	// The plan again, each shard document read by its child index.
	b.Run("index", func(b *testing.B) {
		want, _ := MergeCache(docs, branch.ID{}, ring)
		if p, err := PlanCache(indexed, branch.ID{}, ring); err != nil || p.Scans != 0 || !bytes.Equal(p.Bytes(), want) {
			b.Fatalf("indexed plan: err %v, %d documents scanned, same bytes %v", err, p.Scans, bytes.Equal(p.Bytes(), want))
		}
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := PlanCache(indexed, branch.ID{}, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += p.Len
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := MergeCache(docs, branch.ID{}, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(out)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := oracleMergeCache(docs, branch.ID{}, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(out)
		}
	})
}

func BenchmarkMergeReports(b *testing.B) {
	docs, ring, n := benchDocs(b, true)
	b.Run("plan", func(b *testing.B) {
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := PlanReports(docs, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += p.Len
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := MergeReports(docs, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(out)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(int64(n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := oracleMergeReports(docs, ring)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(out)
		}
	})
}
