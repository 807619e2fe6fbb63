package depot_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
	"inca/internal/metrics"
	"inca/internal/report"
	"inca/internal/xmlscan"
)

// tokenisedEntry is the insert as it was before admission: the report
// decoded and re-encoded token by token inside <entry>.
func tokenisedEntry(reportXML []byte) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	if err := depot.WriteEntry(enc, reportXML); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FuzzCanonical holds the admission to its one promise: a report it accepts
// is stored as the bytes the tokenising insert would have written, and the
// tokenising insert would not have refused it. What it rejects only costs
// time. The committed corpus has one input per exclusion of the accepted
// set (DESIGN.md §5b).
func FuzzCanonical(f *testing.F) {
	f.Add(paddedReport(f, 851))
	f.Add([]byte(` <r a="1 &amp; 2&#xA;"><v>x &lt; y&#x9;&#xD;` + "\n" + `é</v></r>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := xmlscan.Canonical(data)
		if !ok {
			return
		}
		want, err := tokenisedEntry(data)
		if err != nil {
			t.Fatalf("%q: admitted, the tokenising insert refuses it: %v", data, err)
		}
		if got := "<entry>" + string(payload) + "</entry>"; got != string(want) {
			t.Fatalf("%q: admitted as\n%s\nthe tokenising insert writes\n%s", data, got, want)
		}
	})
}

// paddedReport marshals a report of exactly size bytes, as the benchmark of
// record's generator does: every byte through the encoder, so canonical.
func paddedReport(tb testing.TB, size int) []byte {
	tb.Helper()
	build := func(pad int) []byte {
		r := report.New("bench.probe", "1.0", "bench.example.org", time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC))
		r.Body = report.Branch("bench", "probe",
			report.Branch("statistic", "sample", report.Leaf("seq", "00000042"), report.Leaf("units", "count")),
			report.Leaf("pad", strings.Repeat("x", pad)))
		data, err := report.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	data := build(size - len(build(0)))
	if len(data) != size {
		tb.Fatalf("report is %d bytes, want %d", len(data), size)
	}
	return data
}

// mixedReports are inserts on both sides of the admission: the marshalled
// report and hand-written canonical text take the byte-level path, every
// other line is one exclusion of the accepted set and is tokenised. (No
// namespaces here: the generic cache re-encodes stored entries on every
// splice and a namespace declaration grows each time; FuzzCanonical's
// corpus has them.)
func mixedReports(tb testing.TB) (fast, slow [][]byte) {
	fast = [][]byte{
		paddedReport(tb, 851),
		[]byte(`<r><v>1</v></r>`),
		[]byte("\n  <r a=\"x&#xA;y\"><v>a &amp; b &lt; c &gt; d &#34;e&#39;\nf&#x9;g&#xD;</v></r>"),
		[]byte(`<r><v>é ✓</v><w></w></r><s></s>tail`),
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
	} {
		slow = append(slow, []byte(s))
	}
	return fast, slow
}

// TestAdmissionKeepsDumpsIdentical drives the caches that admit reports and
// the generic StreamCache, which tokenises every one, through the same mix
// of fast-path and fallback inserts: the documents stay byte-identical, and
// the fallback counter says exactly which inserts were tokenised.
func TestAdmissionKeepsDumpsIdentical(t *testing.T) {
	fast, slow := mixedReports(t)
	reg := metrics.NewRegistry()
	idx := depot.NewIndexedCache()
	d := depot.NewWithOptions(idx, depot.Options{Metrics: reg})
	stream, generic := ablation.NewStreamCache(), ablation.NewStreamCacheGeneric()
	streamFallbacks := &metrics.Counter{}
	stream.CountFallbacks(streamFallbacks)

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
			depot.MustUpdate(t, stream, id.String(), doc)
			depot.MustUpdate(t, generic, id.String(), doc)
			want := generic.Dump()
			if got := idx.Dump(); !bytes.Equal(got, want) {
				t.Fatalf("after %q:\nindexed %s\ngeneric %s", doc, got, want)
			}
			if got := stream.Dump(); !bytes.Equal(got, want) {
				t.Fatalf("after %q:\nstream  %s\ngeneric %s", doc, got, want)
			}
		}
	}
	want := uint64(2 * len(slow))
	if got := streamFallbacks.Value(); got != want {
		t.Errorf("stream cache tokenised %d inserts, want %d", got, want)
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
		b.Run(fmt.Sprint(size), func(b *testing.B) { benchmarkUpdate(b, paddedReport(b, size)) })
	}
}

// BenchmarkUpdateFallback is the same report with one self-closed element
// added, which sends it down the tokenising path: the insert as it was for
// every report before admission.
func BenchmarkUpdateFallback(b *testing.B) {
	for _, size := range []int{851, 45527} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			doc := paddedReport(b, size-len("<e/>"))
			at := bytes.Index(doc, []byte("<pad>"))
			doc = append(doc[:at:at], append([]byte("<e/>"), doc[at:]...)...)
			if _, ok := xmlscan.Canonical(doc); ok || len(doc) != size {
				b.Fatalf("fallback report is %d bytes, canonical %v", len(doc), ok)
			}
			benchmarkUpdate(b, doc)
		})
	}
}
