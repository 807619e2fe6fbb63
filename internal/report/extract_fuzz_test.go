package report

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"inca/internal/xmlscan"
)

// sectionLayout tokenises data with encoding/xml and reports whether it
// accepts the document in full and, if so, whether the root's header, body
// and footer children each appear at most once and in that order — the
// layout every reporter writes, and the one on which a scan that stops
// early and a parse that reads to the end must agree.
func sectionLayout(data []byte) (accepted, inOrder bool) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth, last := 0, 0
	inOrder = true
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return true, inOrder
		}
		if err != nil {
			return false, false
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth++; depth == 2 {
				rank := map[string]int{"header": 1, "body": 2, "footer": 3}[t.Name.Local]
				if rank != 0 && rank <= last {
					inOrder = false
				}
				last = max(last, rank)
			}
		case xml.EndElement:
			depth--
		}
	}
}

// domExtraction is the Parse + Find oracle, in the shape ExtractValues
// returns.
func domExtraction(rep *Report, paths []Path) Extraction {
	ex := Extraction{GMT: rep.Header.GMT, Values: make([]float64, len(paths)), Found: make([]bool, len(paths))}
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
	return ex
}

func sameExtraction(a, b Extraction) bool {
	return a.GMT.Equal(b.GMT) && a.Completed == b.Completed &&
		reflect.DeepEqual(a.Found, b.Found) && reflect.DeepEqual(a.Values, b.Values)
}

const fuzzReportHead = `<incaReport><header><reporter><name>n</name></reporter><hostname>h</hostname><gmt>2004-07-07T12:00:00Z</gmt></header>`
const fuzzReportFoot = `<footer><completed>true</completed></footer></incaReport>`

// FuzzExtractValues holds the extractor's contract on every document
// encoding/xml accepts in full. Against the tokenising extractor run on
// the payload the depot stores (xmlscan.AppendCanonical; the extraction
// reads those bytes): the same Extraction and the same error-or-not, for a
// value path alone, with the success path, and for the success path alone
// — so the early abort, the footer jump and the header and multi-root
// checks are all kept. Against Parse + Find, wherever Parse takes the
// document for a report with its sections in order: no error and the same
// Extraction. On anything encoding/xml refuses, or that holds no element,
// the extraction is an error. The committed corpus has a document for each
// way a report leaves the canonical form, and for each check the extractor
// keeps.
func FuzzExtractValues(f *testing.F) {
	for _, seed := range []struct{ doc, path string }{
		{fuzzReportHead + `<body><metric><ID>bandwidth</ID><statistic><ID>lowerBound</ID><value>984.99</value><units>Mbps</units></statistic></metric></body>` + fuzzReportFoot, "value,statistic=lowerBound,metric=bandwidth"},
		{fuzzReportHead + `<body><m><ID>bw</ID><v><ID>x</ID>12.5</v></m></body>` + fuzzReportFoot, "v=x,m=bw"},
	} {
		f.Add([]byte(seed.doc), seed.path)
	}
	f.Fuzz(func(t *testing.T, data []byte, expr string) {
		value, err := CompilePath(expr)
		if err != nil || value.Success() {
			value = MustCompilePath("v,a")
		}
		accepted, inOrder := sectionLayout(data)
		payload, writeErr := xmlscan.AppendCanonical(nil, data)
		rep, parseErr := Parse(data)
		for _, paths := range [][]Path{{value}, {value, MustCompilePath("")}, {MustCompilePath("")}} {
			got, err := ExtractValues(data, paths)
			if !accepted || writeErr != nil {
				if err == nil {
					t.Fatalf("%q paths %v: extracted from a document that is not stored", data, paths)
				}
				continue
			}
			want, wantErr := extractValuesTokenising(payload, paths)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%q paths %v: error %v, tokenising extractor %v", data, paths, err, wantErr)
			}
			if err == nil && !sameExtraction(got, want) {
				t.Fatalf("%q paths %v: %+v, tokenising extractor %+v", data, paths, got, want)
			}
			if parseErr != nil || !inOrder {
				continue
			}
			if err != nil {
				t.Fatalf("%q paths %v: Parse accepts, ExtractValues: %v", data, paths, err)
			}
			if dom := domExtraction(rep, paths); !sameExtraction(got, dom) {
				t.Fatalf("%q paths %v: %+v, Parse + Find %+v", data, paths, got, dom)
			}
		}
	})
}

// BenchmarkExtractValues is the archive's extraction — one value path and
// the success path, as the benchmark of record's policy asks — from a
// marshalled report of the paper's smallest and largest sizes, by the
// scanner and by the tokenising extractor it replaced.
func BenchmarkExtractValues(b *testing.B) {
	paths := []Path{MustCompilePath("seq,statistic=sample,bench=probe"), MustCompilePath("")}
	for _, size := range []int{851, 45527} {
		build := func(pad int) []byte {
			r := New("bench.probe", "1.0", "bench.example.org", xt0)
			r.Body = Branch("bench", "probe",
				Branch("statistic", "sample", Leaf("seq", "00000042"), Leaf("units", "count")),
				Leaf("pad", strings.Repeat("x", pad)))
			data, err := Marshal(r)
			if err != nil {
				b.Fatal(err)
			}
			return data
		}
		data := build(size - len(build(0)))
		for _, impl := range []struct {
			name    string
			extract func([]byte, []Path) (Extraction, error)
		}{{"scan", ExtractValues}, {"tokenise", extractValuesTokenising}} {
			b.Run(fmt.Sprintf("%s/%d", impl.name, len(data)), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for b.Loop() {
					ex, err := impl.extract(data, paths)
					if err != nil || !ex.Found[0] || ex.Values[0] != 42 || !ex.Completed {
						b.Fatalf("%+v, %v", ex, err)
					}
				}
			})
		}
	}
}
