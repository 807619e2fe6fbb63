package query

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
)

// perReadWriter is the single-depot read path as it was written before the
// cache handed out its own bytes, kept as the byte oracle for
// FuzzReadBodies: /reports escapes every identifier on every read and
// writes the body to the ResponseWriter piece by piece, and /cache serves
// a copy of what the cache answered. Every other endpoint is the local
// backend's.
type perReadWriter struct{ *local }

func (b perReadWriter) cache(id branch.ID, inm string) (document, error) {
	tag := etagFor(b.d.CacheGeneration())
	if b.unchanged(inm, tag) {
		return document{tag: tag, notModified: true}, nil
	}
	sub, ok, err := b.d.Cache().Query(id)
	if err != nil {
		return document{}, err
	}
	if !ok {
		b.queryMisses.Inc()
		return document{}, httpError{http.StatusNotFound, "no data at branch " + id.String()}
	}
	b.queryHits.Inc()
	return bytesDoc("text/xml", tag, bytes.Clone(sub)), nil
}

func (b perReadWriter) reports(id branch.ID, inm string) (document, error) {
	tag := etagFor(b.d.CacheGeneration())
	if b.unchanged(inm, tag) {
		return document{tag: tag, notModified: true}, nil
	}
	stored, err := b.d.Cache().Reports(id)
	if err != nil {
		return document{}, err
	}
	if len(stored) == 0 {
		b.queryMisses.Inc()
	} else {
		b.queryHits.Inc()
	}
	const (
		openTag   = `<stored branch="`
		closeAttr = `">`
		closeTag  = `</stored>`
	)
	var esc bytes.Buffer
	offs := make([]int, len(stored)+1)
	total := len("<reports></reports>")
	for i, st := range stored {
		xml.EscapeText(&esc, []byte(st.ID.String()))
		offs[i+1] = esc.Len()
		total += len(openTag) + (offs[i+1] - offs[i]) + len(closeAttr) + len(st.XML) + len(closeTag)
	}
	return document{contentType: "text/xml", tag: tag, len: total, write: func(w io.Writer) {
		escaped := esc.Bytes()
		io.WriteString(w, "<reports>")
		for i, st := range stored {
			io.WriteString(w, openTag)
			w.Write(escaped[offs[i]:offs[i+1]])
			io.WriteString(w, closeAttr)
			w.Write(bytes.Clone(st.XML))
			io.WriteString(w, closeTag)
		}
		io.WriteString(w, "</reports>")
	}}, nil
}

// FuzzReadBodies holds the single-depot read path to perReadWriter: for a
// depot built from fuzzed identifiers (values holding & < > " ', tabs and
// newlines) and a fuzzed report, every /reports and /cache read at every
// stored identifier's prefixes, at the root and at an absent branch —
// plain, conditional on the tag it was answered under, and as HEAD — gets
// the same status, the same headers (ETag, Content-Length and
// Content-Type among them) and the same body, byte for byte, through
// Server.Handler; and a HEAD answered 200 carries no body (an error's
// text goes out as http.Error writes it, which net/http drops for HEAD).
func FuzzReadBodies(f *testing.F) {
	f.Add("probe=p1,site=a&b,vo=x|probe=p\t2,site=<s>,vo=x|probe=\"q'\",site=a&b,vo=x|probe=l\nm,vo=x", []byte(`<r><v>1</v></r>`))
	f.Add("vo=x|site=s,vo=x|a=1", []byte(`<incaReport xmlns:x="u"><x:body>&amp;</x:body></incaReport>`))
	f.Add("probe=\xff\xfe,vo=x|probe=]]>,vo=x", []byte("not xml"))
	f.Fuzz(func(t *testing.T, ids string, rep []byte) {
		d := depot.New(depot.NewIndexedCache())
		prefixes := []branch.ID{{}, branch.MustParse("absent=1")}
		for i, s := range strings.SplitN(ids, "|", 8) {
			id, err := branch.Parse(s)
			if err != nil || id.IsRoot() {
				continue
			}
			data := rep
			if i%2 == 1 {
				data = fmt.Appendf(nil, "<r><v>%d</v></r>", i)
			}
			if _, err := d.Store(id, data); err != nil {
				continue
			}
			for p := id; !p.IsRoot(); p = p.Parent() {
				prefixes = append(prefixes, p)
			}
		}
		got := NewServer(d).Handler()
		oracle := &Server{}
		oracle.b = perReadWriter{newLocal(oracle, d, nil)}
		want := oracle.Handler()
		serve := func(h http.Handler, method, target, inm string) *httptest.ResponseRecorder {
			r := httptest.NewRequest(method, target, nil)
			if inm != "" {
				r.Header.Set("If-None-Match", inm)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec
		}
		for _, p := range prefixes {
			for _, path := range []string{"/reports", "/cache"} {
				target := path + "?" + url.Values{"branch": {p.String()}}.Encode()
				inm := ""
				for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodGet} {
					g, w := serve(got, method, target, inm), serve(want, method, target, inm)
					if g.Code != w.Code || !reflect.DeepEqual(g.Header(), w.Header()) || !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
						t.Fatalf("%s %s (If-None-Match %q): %d %v %q; per-read writer %d %v %q",
							method, target, inm, g.Code, g.Header(), g.Body.Bytes(), w.Code, w.Header(), w.Body.Bytes())
					}
					if method == http.MethodHead && g.Code == http.StatusOK && g.Body.Len() != 0 {
						t.Fatalf("HEAD %s wrote a body: %q", target, g.Body.Bytes())
					}
					inm = g.Header().Get("ETag") // the last GET revalidates
				}
			}
		}
	})
}

// benchDepot is the benchmark of record's working set in one memory
// depot: 32 sites of 32 probes under vo=bench, each holding the 851-byte
// report. It returns the site prefixes a subtree read asks for.
func benchDepot(tb testing.TB) (*depot.Depot, []string) {
	data := benchReports(tb)[0]
	d := depot.New(depot.NewIndexedCache())
	var sites []string
	vo := branch.ID{}.Child("vo", "bench")
	for s := 0; s < 32; s++ {
		site := vo.Child("site", fmt.Sprintf("s%02d", s))
		sites = append(sites, site.String())
		for p := 0; p < 32; p++ {
			if _, err := d.Store(site.Child("probe", fmt.Sprintf("p%02d", p)), data); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return d, sites
}

// discardWriter is a ResponseWriter that keeps the headers, counts the
// body's writes and bytes, and drops them.
type discardWriter struct {
	h             http.Header
	writes, bytes int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// serveDiscarding runs one request through h into w, reset first.
func serveDiscarding(h http.Handler, w *discardWriter, r *http.Request) {
	clear(w.h)
	w.writes, w.bytes = 0, 0
	h.ServeHTTP(w, r)
}

// reportsReadAllocs is what one /reports read of a 32-report site costs
// in allocations, through the handler: the mux, the query parse, the
// headers, the report list, and the closures that write the body and
// return its pooled buffer. A per-report copy or escape would add 32 or
// more.
const reportsReadAllocs = 14

// TestReportsAllocationBudget holds a /reports read of one site of the
// benchmark of record's working set to reportsReadAllocs, and to one
// Write of the whole body.
func TestReportsAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates")
	}
	d, sites := benchDepot(t)
	h := NewServer(d).Handler()
	r := httptest.NewRequest(http.MethodGet, "/reports?"+url.Values{"branch": {sites[3]}}.Encode(), nil)
	w := &discardWriter{h: make(http.Header)}
	serveDiscarding(h, w, r)
	if n := w.h.Get("Content-Length"); w.writes != 1 || fmt.Sprint(w.bytes) != n || w.bytes < 32*851 {
		t.Fatalf("%d writes of %d bytes, Content-Length %s", w.writes, w.bytes, n)
	}
	allocs := testing.AllocsPerRun(200, func() { serveDiscarding(h, w, r) })
	if allocs > reportsReadAllocs {
		t.Fatalf("a /reports read of one site allocates %.0f times, budget %d", allocs, reportsReadAllocs)
	}
}

// BenchmarkReadHandler is the single depot's read path at the benchmark
// of record's working set, through the handler into a ResponseWriter that
// drops the body: one site's /reports (the subtree read), the whole
// /cache, and the whole /cache revalidated (304).
func BenchmarkReadHandler(b *testing.B) {
	d, sites := benchDepot(b)
	h := NewServer(d).Handler()
	tag := etagFor(d.CacheGeneration())
	for _, c := range []struct{ name, target, inm string }{
		{"reports_site", "/reports?" + url.Values{"branch": {sites[3]}}.Encode(), ""},
		{"cache_root", "/cache", ""},
		{"cache_304", "/cache", tag},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := httptest.NewRequest(http.MethodGet, c.target, nil)
			if c.inm != "" {
				r.Header.Set("If-None-Match", c.inm)
			}
			w := &discardWriter{h: make(http.Header)}
			serveDiscarding(h, w, r)
			b.SetBytes(int64(w.bytes))
			b.ReportAllocs()
			for b.Loop() {
				serveDiscarding(h, w, r)
			}
		})
	}
}
