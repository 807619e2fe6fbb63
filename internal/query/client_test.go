package query

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
)

// TestClientReadsDeclaredLength holds the client's sized read to what
// io.ReadAll gave: a body is read whole whatever its framing, and one that
// ends short of its declared length is an error.
func TestClientReadsDeclaredLength(t *testing.T) {
	long := bytes.Repeat([]byte("x"), maxPresized+1)
	mux := http.NewServeMux()
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		rw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("s", 50))
		rw.Flush()
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "<chunk%d/>", i)
			w.(http.Flusher).Flush()
		}
	})
	mux.HandleFunc("/long", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(long)))
		w.Write(long)
	})
	mux.HandleFunc("/cache", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") == `"g7"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", `"g7"`)
		w.Write([]byte("<cache/>"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL)

	if body, err := c.get("/short", nil); err == nil {
		t.Fatalf("a body 50 bytes short of its Content-Length read as %d bytes, no error", len(body))
	}
	if body, err := c.get("/chunked", nil); err != nil || string(body) != "<chunk0/><chunk1/><chunk2/>" {
		t.Fatalf("chunked body = %q, %v", body, err)
	}
	if body, err := c.get("/long", nil); err != nil || !bytes.Equal(body, long) {
		t.Fatalf("a body declared past the cap read as %d bytes of %d, %v", len(body), len(long), err)
	}
	body, tag, notModified, err := c.CacheConditional("", "")
	if err != nil || notModified || tag != `"g7"` || string(body) != "<cache/>" {
		t.Fatalf("first read = %q %q %v %v", body, tag, notModified, err)
	}
	body, tag, notModified, err = c.CacheConditional("", tag)
	if err != nil || !notModified || tag != `"g7"` || body != nil {
		t.Fatalf("revalidation = %q %q %v %v, want a 304 returning the caller's tag", body, tag, notModified, err)
	}
}

// TestClientErrorTextBounded: an error answer's body reaches the error
// text only up to errTextLimit bytes.
func TestClientErrorTextBounded(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, strings.Repeat("e", 1<<20), http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	for name, call := range map[string]func() error{
		"get":          func() error { _, err := c.get("/cache", nil); return err },
		"conditional":  func() error { _, _, _, err := c.CacheConditional("", ""); return err },
		"UploadPolicy": func() error { return c.UploadPolicy(depot.Policy{Name: "p"}) },
	} {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "500") || len(err.Error()) > errTextLimit+100 {
			t.Errorf("%s: error of %d bytes: %.80v", name, len(fmt.Sprint(err)), err)
		}
	}
}

// BenchmarkClientCache is a consumer's whole-cache read at the benchmark
// of record's working set (32 sites x 32 probes of 851-byte reports,
// about 931 KB), served as a depot serves it, with its Content-Length.
// The allocation per read is the figure to watch: about the body's size.
func BenchmarkClientCache(b *testing.B) {
	data := benchReports(b)[0]
	cache := depot.NewIndexedCache()
	vo := branch.ID{}.Child("vo", "bench")
	for s := 0; s < 32; s++ {
		site := vo.Child("site", fmt.Sprintf("s%02d", s))
		for p := 0; p < 32; p++ {
			if _, err := cache.Update(site.Child("probe", fmt.Sprintf("p%02d", p)), data); err != nil {
				b.Fatal(err)
			}
		}
	}
	doc := cache.Dump()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
		w.Write(doc)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		body, err := c.Cache("")
		if err != nil || len(body) != len(doc) {
			b.Fatalf("read %d of %d bytes: %v", len(body), len(doc), err)
		}
	}
}
