package depot_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
	"inca/internal/metrics"
	"inca/internal/xmlscan"
)

// roundTripEntry is the entry writer the depot stored every non-canonical
// report with before its payloads had one canonical form: decode with
// encoding/xml, re-encode token by token inside <entry>. It is kept, as it
// was, as the reference FuzzEntryPayload holds the writer to on the
// reports the two must agree on.
func roundTripEntry(enc *xml.Encoder, reportXML []byte) error {
	entry := xml.StartElement{Name: xml.Name{Local: "entry"}}
	if err := enc.EncodeToken(entry); err != nil {
		return err
	}
	dec := xml.NewDecoder(bytes.NewReader(reportXML))
	wrote := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("depot: report is not well-formed XML: %w", err)
		}
		if !wrote {
			switch t := tok.(type) {
			case xml.CharData:
				// Skip leading whitespace outside the root element.
				continue
			case xml.ProcInst:
				if t.Target == "xml" {
					continue
				}
			}
		}
		if err := enc.EncodeToken(tok); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return fmt.Errorf("depot: empty report payload")
	}
	return enc.EncodeToken(entry.End())
}

// roundTripPayload is the payload roundTripEntry writes.
func roundTripPayload(reportXML []byte) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	if err := roundTripEntry(enc, reportXML); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	frag := buf.Bytes()
	return frag[len("<entry>") : len(frag)-len("</entry>")], nil
}

// FuzzCanonical holds the admission to its one promise: a report it accepts
// is stored as the bytes the writer would have written, and the writer
// would not have refused it. What it rejects only costs time. The
// committed corpus has one input per exclusion of the accepted set
// (DESIGN.md §5b).
func FuzzCanonical(f *testing.F) {
	f.Add(depot.PaddedReport(f, 851))
	f.Add([]byte(` <r a="1 &amp; 2&#xA;"><v>x &lt; y&#x9;&#xD;` + "\n" + `é</v></r>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := xmlscan.Canonical(data)
		if !ok {
			return
		}
		want, err := xmlscan.AppendCanonical(nil, data)
		if err != nil {
			t.Fatalf("%q: admitted, the writer refuses it: %v", data, err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("%q: admitted as\n%s\nthe writer writes\n%s", data, payload, want)
		}
	})
}

// tokenFacts reads doc with encoding/xml's RawToken as far as it goes and
// reports whether it holds an element, and whether it holds anything the
// writer spells differently from the round trip it replaced: a prefixed
// name, an xmlns attribute, a comment, a directive or a processing
// instruction other than an XML declaration before the first element.
func tokenFacts(doc []byte) (element, differs bool) {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return element, differs
		}
		switch t := tok.(type) {
		case xml.StartElement:
			element = true
			differs = differs || t.Name.Space != ""
			for _, a := range t.Attr {
				differs = differs || a.Name.Space != "" || a.Name.Local == "xmlns"
			}
		case xml.EndElement:
			differs = differs || t.Name.Space != ""
		case xml.Comment, xml.Directive:
			differs = true
		case xml.ProcInst:
			differs = differs || element || t.Target != "xml"
		}
	}
}

// asciiNames reports whether every element and attribute name in doc, a
// payload, is ASCII.
func asciiNames(doc []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return true
		}
		if t, ok := tok.(xml.StartElement); ok {
			names := t.Name.Space + t.Name.Local
			for _, a := range t.Attr {
				names += a.Name.Space + a.Name.Local
			}
			if strings.IndexFunc(names, func(r rune) bool { return r >= utf8.RuneSelf }) >= 0 {
				return false
			}
		}
	}
}

// FuzzEntryPayload holds the admission to being a fixed point. For any
// bytes it accepts, admitting the payload again gives the payload, and a
// payload whose names are ASCII is canonical, so it is admitted in one
// scan. Against the round trip the writer replaced (roundTripPayload):
// on a report with no prefix, xmlns attribute, comment, directive or
// processing instruction past a leading XML declaration, the same bytes
// and the same verdict, with the same error text unless the round trip's
// was that it wrote nothing; on any report, nothing the round trip stored
// is refused unless it holds no element.
func FuzzEntryPayload(f *testing.F) {
	fast, slow := mixedReports(f)
	for _, doc := range append(fast, slow...) {
		f.Add(doc)
	}
	for _, doc := range []string{
		`<r><x:pad xmlns:x="u">1</x:pad></r>`,
		`<pad xmlns="u" xmlns:_xmlns="xmlns" _xmlns:x="u">1</pad>`,
		`<!-- only a comment -->`,
		`<r></r><?xml version="1.0"?>`,
		`<é a="1"><b/></é>`,
		`<a></b>`,
		`<p:a></q:a>`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := depot.EntryPayload(data, nil)
		want, wantErr := roundTripPayload(data)
		element, differs := tokenFacts(data)
		if !differs {
			if (err != nil) != (wantErr != nil) || !bytes.Equal(payload, want) {
				t.Fatalf("%q: payload %q, %v; the round trip %q, %v", data, payload, err, want, wantErr)
			}
			if err != nil && wantErr.Error() != "depot: empty report payload" && err.Error() != wantErr.Error() {
				t.Fatalf("%q: refused with %q, the round trip with %q", data, err, wantErr)
			}
		}
		if err != nil {
			if wantErr == nil && element {
				t.Fatalf("%q: refused (%v), the round trip stored %q", data, err, want)
			}
			return
		}
		again, err := depot.EntryPayload(payload, nil)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("%q: payload %q admits as %q, %v", data, payload, again, err)
		}
		if _, ok := xmlscan.Canonical(payload); !ok && asciiNames(payload) {
			t.Fatalf("%q: payload %q is not canonical", data, payload)
		}
	})
}

// mixedReports are inserts on both sides of the admission: the marshalled
// report and hand-written canonical text, namespaced too, take the
// byte-level path; every other line is one exclusion of the accepted set
// and is written out in canonical form.
func mixedReports(tb testing.TB) (fast, slow [][]byte) {
	fast = [][]byte{
		depot.PaddedReport(tb, 851),
		[]byte(`<r><v>1</v></r>`),
		[]byte("\n  <r a=\"x&#xA;y\"><v>a &amp; b &lt; c &gt; d &#34;e&#39;\nf&#x9;g&#xD;</v></r>"),
		[]byte(`<r><v>é ✓</v><w></w></r><s></s>tail`),
		[]byte(`<r><x:pad xmlns:x="u">1</x:pad></r>`),
		[]byte(`<r xmlns="u" xml:lang="en"><v>1</v></r>`),
	}
	for _, s := range []string{
		`<r><v/></r>`,
		`<r b='1'><v>1</v></r>`,
		`<r ><v>1</v></r >`,
		`<r><v>it&apos;s &quot;x&quot;</v></r>`,
		`<r><v>"raw" 'quotes' ></v></r>`,
		"<r>\t<v>1</v>\r\n</r>",
		`<r><v><![CDATA[1 < 2]]></v><!-- note --><?pi x?></r>`,
		`<r a="x` + "\n" + `y"><v>&#xA;&#65;</v></r>`,
		`<?xml version="1.0"?>` + "\n" + `<r><v>1</v></r>`,
		`<!DOCTYPE r [<!ENTITY e "x">]>` + "\n" + `<r><v>1</v></r>`,
		`<x:r xmlns:x='u'><x:v a = "1"/></x:r>`,
		`<r xmlns:x="u"><v x:a="1"><!-- c --></v></r>`,
	} {
		slow = append(slow, []byte(s))
	}
	return fast, slow
}

// TestAdmissionKeepsDumpsIdentical drives the caches that admit reports and
// the generic StreamCache, which writes every one out, through the same
// mix of fast-path and fallback inserts: the documents of all of them stay
// byte-identical, and the fallback counter says exactly which inserts were
// written out.
func TestAdmissionKeepsDumpsIdentical(t *testing.T) {
	fast, slow := mixedReports(t)
	reg := metrics.NewRegistry()
	idx := depot.NewIndexedCache()
	d := depot.NewWithOptions(idx, depot.Options{Metrics: reg})
	stream, generic := ablation.NewStreamCache(), ablation.NewStreamCacheGeneric()
	streamFallbacks := &metrics.Counter{}
	stream.CountFallbacks(streamFallbacks)
	file, err := ablation.OpenFileCache(filepath.Join(t.TempDir(), "cache.xml"))
	if err != nil {
		t.Fatal(err)
	}
	others := map[string]depot.Cache{
		"stream": stream, "dom": ablation.NewDOMCache(), "split": ablation.NewSplitCache(), "file": file,
	}

	for _, doc := range fast {
		if _, ok := xmlscan.Canonical(doc); !ok {
			t.Fatalf("%q is not admitted", doc)
		}
	}
	var docs [][]byte
	for i := range slow {
		if _, ok := xmlscan.Canonical(slow[i]); ok {
			t.Fatalf("%q is admitted", slow[i])
		}
		docs = append(docs, slow[i], fast[i%len(fast)])
	}
	for round := 0; round < 2; round++ { // the second round replaces
		for i, doc := range docs {
			id := branch.MustParse(fmt.Sprintf("probe=p%d,site=s%d,vo=tg", (i+round)%7, i%3))
			if _, err := d.Store(id, doc); err != nil {
				t.Fatalf("indexed %q: %v", doc, err)
			}
			depot.MustUpdate(t, generic, id.String(), doc)
			want := generic.Dump()
			if got := idx.Dump(); !bytes.Equal(got, want) {
				t.Fatalf("after %q:\nindexed %s\ngeneric %s", doc, got, want)
			}
			for name, c := range others {
				depot.MustUpdate(t, c, id.String(), doc)
				if got := c.Dump(); !bytes.Equal(got, want) {
					t.Fatalf("after %q:\n%s %s\ngeneric %s", doc, name, got, want)
				}
			}
		}
	}
	want := uint64(2 * len(slow))
	if got := streamFallbacks.Value(); got != want {
		t.Errorf("stream cache wrote out %d inserts, want %d", got, want)
	}
	// The indexed cache counts into its depot's registry.
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("inca_depot_insert_fallback_total %d\n", want); !strings.Contains(text.String(), line) {
		t.Errorf("indexed cache: exposition lacks %q", line)
	}
}

func benchmarkUpdate(b *testing.B, doc []byte) {
	c := depot.NewIndexedCache()
	ids := make([]branch.ID, 64)
	for i := range ids {
		ids[i] = branch.MustParse(fmt.Sprintf("probe=p%d,resource=r%d,site=s%d,vo=tg", i, i%8, i%4))
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := c.Update(ids[i%len(ids)], doc); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkUpdateCanonical is IndexedCache.Update on a marshalled report:
// one admission scan and one copy.
func BenchmarkUpdateCanonical(b *testing.B) {
	for _, size := range []int{851, 45527} {
		b.Run(fmt.Sprint(size), func(b *testing.B) { benchmarkUpdate(b, depot.PaddedReport(b, size)) })
	}
}

// BenchmarkUpdateFallback is the same report with one self-closed element
// added, which the insert must write out in canonical form.
func BenchmarkUpdateFallback(b *testing.B) {
	for _, size := range []int{851, 45527} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			doc := depot.PaddedReport(b, size-len("<e/>"))
			at := bytes.Index(doc, []byte("<pad>"))
			doc = append(doc[:at:at], append([]byte("<e/>"), doc[at:]...)...)
			if _, ok := xmlscan.Canonical(doc); ok || len(doc) != size {
				b.Fatalf("fallback report is %d bytes, canonical %v", len(doc), ok)
			}
			benchmarkUpdate(b, doc)
		})
	}
}
