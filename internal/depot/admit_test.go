package depot

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"inca/internal/report"
	"inca/internal/xmlscan"
)

// admitVocabulary is what FuzzAdmit's policies archive: the success path,
// the benchmark's value path, and the paths the extractor's own corpus
// asks for.
var admitVocabulary = [8]string{
	"",
	"seq,statistic=sample,bench=probe",
	"v,a",
	"v,m",
	"v",
	"v,m=a",
	"v,m=b",
	"value,statistic=lowerBound,metric=bandwidth",
}

// admitPaths draws one to three paths from admitVocabulary: pick%3 says
// how many, and three bits each, above the low two, say which.
func admitPaths(pick uint16) []report.Path {
	paths := make([]report.Path, 1+pick%3)
	for i := range paths {
		paths[i] = report.MustCompilePath(admitVocabulary[pick>>(2+3*i)&7])
	}
	return paths
}

// admitPick is the pick admitPaths turns into the given vocabulary
// entries.
func admitPick(tb testing.TB, exprs ...string) uint16 {
	pick := uint16(len(exprs) - 1)
	for i, expr := range exprs {
		k := slices.Index(admitVocabulary[:], expr)
		if k < 0 {
			tb.Fatalf("%q is not in the vocabulary", expr)
		}
		pick |= uint16(k) << (2 + 3*i)
	}
	return pick
}

// extractorCorpus reads the documents of the extractor's committed fuzz
// corpus, each with the path it was committed with.
func extractorCorpus(tb testing.TB) (docs [][]byte, exprs []string) {
	files, err := filepath.Glob(filepath.Join("..", "report", "testdata", "fuzz", "FuzzExtractValues", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no extractor corpus: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 3 {
			tb.Fatalf("%s: %d lines", name, len(lines))
		}
		doc, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		expr, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "string("), ")"))
		if err1 != nil || err2 != nil {
			tb.Fatalf("%s: %v %v", name, err1, err2)
		}
		docs, exprs = append(docs, []byte(doc)), append(exprs, expr)
	}
	return docs, exprs
}

const (
	admitHeader = `<header><reporter><name>n</name></reporter><hostname>h</hostname><gmt>2004-07-07T12:00:00Z</gmt></header>`
	admitFooter = `<footer><completed>true</completed></footer>`
)

// FuzzAdmit holds the depot's one pass over a stored report — the
// canonical scan with the extraction driven from it, or the written
// payload and the extraction over it — to what it must agree with. For any
// bytes and one to three policy paths: the payload and whether the report
// is refused are EntryPayload's, a report is reported canonical exactly
// when xmlscan.Canonical takes it, and wherever report.Parse takes the
// payload for a report with its sections in order, the extraction is
// Parse + Find's: no error, the same GMT, Completed (when a success path
// is asked for) and every value. (FuzzExtractValues holds the same
// extraction to the tokenising extractor on every payload.) The seeds are
// the extractor's own corpus, a benchmark-shaped report, and the
// extraction's order quirks.
func FuzzAdmit(f *testing.F) {
	docs, exprs := extractorCorpus(f)
	for i, doc := range docs {
		f.Add(doc, admitPick(f, exprs[i]))
		f.Add(doc, admitPick(f, exprs[i], ""))
		f.Add(doc, admitPick(f, ""))
	}
	bench := paddedReport(f, 851)
	f.Add(bench, admitPick(f, "seq,statistic=sample,bench=probe"))
	f.Add(bench, admitPick(f, "seq,statistic=sample,bench=probe", ""))
	f.Add(bench, admitPick(f, "v", "seq,statistic=sample,bench=probe", ""))
	for _, quirk := range []struct{ doc, expr string }{
		// The body ends the scan when no footer is needed: a header
		// after it is never read.
		{`<incaReport><body><a><v>1</v></a></body>` + admitHeader + admitFooter + `</incaReport>`, "v,a"},
		// Settled inside the first root: the second is never seen.
		{`<incaReport>` + admitHeader + `<body><a><v>6</v></a><b></b></body>` + admitFooter + `</incaReport>`, "v,a"},
		// The last <gmt> wins; a bad one fails wherever it stands.
		{`<incaReport><header><gmt>2004-07-07T12:00:00Z</gmt><gmt> 2005-01-02T03:04:05Z </gmt></header><body><a><v>2</v></a></body>` + admitFooter + `</incaReport>`, "v,a"},
		{`<incaReport><header><gmt>2004-07-07T12:00:00Z</gmt><gmt>July</gmt></header><body></body>` + admitFooter + `</incaReport>`, "v"},
		{`<incaReport><header><gmt>2004-07-07T12:00:00Z<b></b></gmt></header><body></body>` + admitFooter + `</incaReport>`, "v"},
		// A footer before the header is read, and the scan goes on.
		{`<incaReport><footer><completed>true</completed></footer>` + admitHeader + `<body><a><v>3</v></a></body></incaReport>`, ""},
		// No footer where one is needed.
		{`<incaReport>` + admitHeader + `<body><a><v>1</v></a></body></incaReport>`, ""},
		// A root that is not a report.
		{`<report>` + admitHeader + `<body><a><v>1</v></a></body>` + admitFooter + `</report>`, "v,a"},
		// A settled body is read to its own end tag, whatever "</body>"
		// stands later: a footer inside a later section is not read.
		{`<incaReport>` + admitHeader + `<body><a><v>4</v></a><pad>x</pad></body><x><body></body>` + admitFooter + `</x></incaReport>`, "v,a"},
		{`<incaReport>` + admitHeader + `<body><a><v>4</v></a></body>` + admitFooter + `</incaReport><body></body>`, "v,a"},
		{`<incaReport>` + admitHeader + `<body><body><v>5</v></body></body>` + admitFooter + `</incaReport>`, "v"},
		// The footer's flags must be text.
		{`<incaReport>` + admitHeader + `<body></body><footer><completed>true</completed><errorMessage><b></b></errorMessage></footer></incaReport>`, "v"},
		// A prefixed body is a body, and ends at its own end tag.
		{`<incaReport xmlns:x="u">` + admitHeader + `<body><a><v>4</v></a></body><x:body></x:body>` + admitFooter + `</incaReport>`, "v,a"},
		{`<incaReport xmlns:x="u">` + admitHeader + `<x:body><a><body></body><v>1</v></a></x:body>` + admitFooter + `</incaReport>`, "v,a"},
		// Not canonical: the extraction reads the written payload.
		{`<incaReport>` + admitHeader + `<body><a><v>7</v><!-- </body> --></a></body>` + admitFooter + `</incaReport>`, "v,a"},
		{`<é>` + admitHeader + `<body><a><v>8</v></a></body>` + admitFooter + `</é>`, "v,a"},
	} {
		f.Add([]byte(quirk.doc), admitPick(f, quirk.expr))
		f.Add([]byte(quirk.doc), admitPick(f, quirk.expr, ""))
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint16) {
		paths := admitPaths(pick)
		success := false
		for _, p := range paths {
			success = success || p.Success()
		}
		sc := &archiveScratch{paths: paths}
		payload, canonical, ex, exErr, err := sc.admit(data)

		wantPayload, wantErr := EntryPayload(data, nil)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%q: admitted %q, %v; EntryPayload %q, %v", data, payload, err, wantPayload, wantErr)
		}
		if _, want := xmlscan.Canonical(data); canonical != want {
			t.Fatalf("%q: admitted as canonical %v, xmlscan.Canonical %v", data, canonical, want)
		}
		if wantErr != nil {
			return
		}
		want, ok := parsedExtraction(payload, paths)
		if !ok {
			return
		}
		if exErr != nil {
			t.Fatalf("%q paths %v: Parse takes the payload, extraction: %v", data, paths, exErr)
		}
		if !ex.GMT.Equal(want.GMT) || success && ex.Completed != want.Completed {
			t.Fatalf("%q paths %v: gmt %v completed %v, Parse + Find %v %v", data, paths, ex.GMT, ex.Completed, want.GMT, want.Completed)
		}
		for i := range paths {
			if ex.Found[i] != want.Found[i] || math.Float64bits(ex.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%q paths %v: value %d is %v %v, Parse + Find %v %v", data, paths, i, ex.Values[i], ex.Found[i], want.Values[i], want.Found[i])
			}
		}
	})
}

// parsedExtraction is report.Parse, Find and Float over doc, a payload,
// in the shape an extraction returns. ok is false where that oracle does
// not apply: Parse refuses doc, or the root's header, body and footer
// children are not each there at most once and in that order.
func parsedExtraction(doc []byte, paths []report.Path) (ex report.Extraction, ok bool) {
	rep, err := report.Parse(doc)
	if err != nil {
		return ex, false
	}
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for depth, last := 0, 0; ; {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ex, false
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth++; depth == 2 {
				rank := map[string]int{"header": 1, "body": 2, "footer": 3}[t.Name.Local]
				if rank != 0 && rank <= last {
					return ex, false
				}
				last = max(last, rank)
			}
		case xml.EndElement:
			depth--
		}
	}
	ex = report.Extraction{GMT: rep.Header.GMT, Values: make([]float64, len(paths)), Found: make([]bool, len(paths))}
	for i, p := range paths {
		switch {
		case p.Success():
			ex.Completed, ex.Found[i] = rep.Footer.Completed, true
			if rep.Footer.Completed {
				ex.Values[i] = 1
			}
		case rep.Body != nil:
			ex.Values[i], ex.Found[i] = rep.Body.Float(p.String())
		}
	}
	return ex, true
}

// BenchmarkAdmit is the store path's one scan of a report under the
// benchmark of record's policy (archiveScratch.admit): a marshalled report
// at the paper's smallest and largest sizes, and an 851-byte one indented
// with tabs, which is written out in canonical form and then read.
func BenchmarkAdmit(b *testing.B) {
	paths := []report.Path{report.MustCompilePath("seq,statistic=sample,bench=probe")}
	run := func(name string, data []byte) {
		b.Run(name, func(b *testing.B) {
			sc := &archiveScratch{paths: paths}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, ex, exErr, err := sc.admit(data); err != nil || exErr != nil || ex.Values[0] != 42 {
					b.Fatal(err, exErr)
				}
			}
		})
	}
	for _, size := range []int{851, 45527} {
		run(fmt.Sprintf("one/%d", size), paddedReport(b, size))
	}
	run("fallback/851", tabIndented(b, 851))
}

// tabIndented is paddedReport with a newline and a tab before the header,
// the body and the footer, size bytes in all: not canonical.
func tabIndented(tb testing.TB, size int) []byte {
	doc := paddedReport(tb, size-3*len("\n\t"))
	for _, tag := range []string{"<header>", "<body>", "<footer>"} {
		at := bytes.Index(doc, []byte(tag))
		doc = append(doc[:at:at], append([]byte("\n\t"), doc[at:]...)...)
	}
	if _, ok := xmlscan.Canonical(doc); ok || len(doc) != size {
		tb.Fatalf("indented report is %d bytes, canonical %v", len(doc), ok)
	}
	return doc
}
