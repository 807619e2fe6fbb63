package depot

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"inca/internal/metrics"
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
// canonical scan with the extraction driven from it, or the fallback for a
// report that is not canonical — to the two passes it replaced:
// EntryPayload, then ExtractValues. For any bytes and one to three policy
// paths they must agree on the payload and whether the report is refused,
// whether extraction fails, and on GMT, Completed (when a success path is
// asked for) and every value. The seeds are the extractor's own corpus, a
// benchmark-shaped report, and ExtractValues' order quirks.
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
		// The footer jump lands after the last "</body>", wherever it is.
		{`<incaReport>` + admitHeader + `<body><a><v>4</v></a><pad>x</pad></body><x><body></body>` + admitFooter + `</x></incaReport>`, "v,a"},
		{`<incaReport>` + admitHeader + `<body><a><v>4</v></a></body>` + admitFooter + `</incaReport><body></body>`, "v,a"},
		{`<incaReport>` + admitHeader + `<body><body><v>5</v></body></body>` + admitFooter + `</incaReport>`, "v"},
		// The footer's flags must be text.
		{`<incaReport>` + admitHeader + `<body></body><footer><completed>true</completed><errorMessage><b></b></errorMessage></footer></incaReport>`, "v"},
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
		fallbacks := (*metrics.Registry)(nil).Counter("fallbacks", "")
		payload, ex, exErr, err := sc.admit(data, fallbacks)

		wantPayload, wantErr := EntryPayload(data, nil)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%q: admitted %q, %v; EntryPayload %q, %v", data, payload, err, wantPayload, wantErr)
		}
		if _, canonical := xmlscan.Canonical(data); canonical != (fallbacks.Value() == 0) {
			t.Fatalf("%q: canonical %v, %d fallbacks", data, canonical, fallbacks.Value())
		}
		if wantErr != nil {
			return
		}
		want, wantExErr := report.ExtractValues(data, paths)
		if (exErr != nil) != (wantExErr != nil) {
			t.Fatalf("%q paths %v: extraction error %v, ExtractValues %v", data, paths, exErr, wantExErr)
		}
		if exErr != nil {
			return
		}
		if !ex.GMT.Equal(want.GMT) || success && ex.Completed != want.Completed {
			t.Fatalf("%q paths %v: gmt %v completed %v, ExtractValues %v %v", data, paths, ex.GMT, ex.Completed, want.GMT, want.Completed)
		}
		for i := range paths {
			if ex.Found[i] != want.Found[i] || math.Float64bits(ex.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%q paths %v: value %d is %v %v, ExtractValues %v %v", data, paths, i, ex.Values[i], ex.Found[i], want.Values[i], want.Found[i])
			}
		}
	})
}

// BenchmarkAdmit is the store path's scan of a report under the benchmark
// of record's policy, at the paper's smallest and largest report sizes:
// the one pass against the two it replaced.
func BenchmarkAdmit(b *testing.B) {
	paths := []report.Path{report.MustCompilePath("seq,statistic=sample,bench=probe")}
	for _, size := range []int{851, 45527} {
		data := paddedReport(b, size)
		b.Run(fmt.Sprintf("one/%d", size), func(b *testing.B) {
			sc := &archiveScratch{paths: paths}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				if _, ex, exErr, err := sc.admit(data, nil); err != nil || exErr != nil || ex.Values[0] != 42 {
					b.Fatal(err, exErr)
				}
			}
		})
		b.Run(fmt.Sprintf("two/%d", size), func(b *testing.B) {
			var ext report.Extractor
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := EntryPayload(data, nil); err != nil {
					b.Fatal(err)
				}
				if ex, err := ext.ExtractValues(data, paths); err != nil || ex.Values[0] != 42 {
					b.Fatal(err)
				}
			}
		})
	}
}
