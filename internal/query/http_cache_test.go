package query

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/metrics"
	"inca/internal/rrd"
)

// newIndexedServer builds a server over an IndexedCache-backed depot —
// the configuration where the generation-derived ETags are live.
func newIndexedServer(t *testing.T) (*httptest.Server, *depot.Depot) {
	t.Helper()
	d := depot.New(depot.NewIndexedCache())
	ts := httptest.NewServer(NewServer(d).Handler())
	t.Cleanup(ts.Close)
	return ts, d
}

func TestCacheETagRoundTrip(t *testing.T) {
	ts, _ := newIndexedServer(t)
	c := NewClient(ts.URL)
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", t0, 990)); err != nil {
		t.Fatal(err)
	}

	body, tag, notMod, err := c.CacheConditional("site=sdsc", "")
	if err != nil {
		t.Fatal(err)
	}
	if notMod || len(body) == 0 || tag == "" {
		t.Fatalf("first fetch: notMod=%v len=%d tag=%q", notMod, len(body), tag)
	}

	// Revalidation with the current tag transfers no body.
	body2, tag2, notMod, err := c.CacheConditional("site=sdsc", tag)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod || body2 != nil || tag2 != tag {
		t.Fatalf("revalidation: notMod=%v body=%q tag=%q", notMod, body2, tag2)
	}

	// A store invalidates the tag; the next conditional fetch pays the body.
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=spruce,site=sdsc", t0, 985)); err != nil {
		t.Fatal(err)
	}
	body3, tag3, notMod, err := c.CacheConditional("site=sdsc", tag)
	if err != nil {
		t.Fatal(err)
	}
	if notMod || tag3 == tag || !bytes.Contains(body3, []byte("spruce")) {
		t.Fatalf("after store: notMod=%v tag=%q body=%s", notMod, tag3, body3)
	}
}

func TestReportsETagAndContentLength(t *testing.T) {
	ts, _ := newIndexedServer(t)
	c := NewClient(ts.URL)
	for _, id := range []string{"tool=pathload,site=sdsc", "tool=spruce,site=sdsc"} {
		if _, err := c.StoreEnvelope(sampleEnvelope(t, id, t0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/reports?branch=site%3Dsdsc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length = %s, body is %d bytes", cl, len(body))
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on /reports")
	}
	if !bytes.HasPrefix(body, []byte("<reports>")) || !bytes.Contains(body, []byte(`<stored branch="tool=pathload,site=sdsc">`)) {
		t.Fatalf("body:\n%s", body)
	}

	_, _, notMod, err := c.ReportsConditional("site=sdsc", tag)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod {
		t.Fatal("reports revalidation missed")
	}
}

func TestReadEndpointsRejectWrites(t *testing.T) {
	srv := NewServer(depot.New(depot.NewIndexedCache()))
	srv.EnableSpecs()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	tf := newTestFederation(t, 2)
	reads := []string{"/cache", "/reports", "/archive", "/graph", "/stats", "/availability", "/readyz", "/feed"}
	writes := []string{"/store"}
	for _, c := range []struct {
		tier, base, method string
		paths              []string
		allow              string
	}{
		{"depot", ts.URL, http.MethodGet, writes, "POST"},
		{"depot", ts.URL, http.MethodDelete, []string{"/spec"}, "GET, POST"},
		{"depot", ts.URL, http.MethodDelete, []string{"/policy"}, "POST, GET, HEAD"},
		{"router", tf.fed.URL, http.MethodDelete, []string{"/policy"}, "POST, GET, HEAD"},
		{"depot", ts.URL, http.MethodPost, reads, "GET, HEAD"},
		{"router", tf.fed.URL, http.MethodPost, append(reads[:len(reads):len(reads)], "/shards"), "GET, HEAD"},
		{"router", tf.fed.URL, http.MethodGet, append(writes[:len(writes):len(writes)],
			"/federation/join", "/federation/leave", "/federation/promote", "/federation/replicate"), "POST"},
	} {
		for _, path := range c.paths {
			req, err := http.NewRequest(c.method, c.base+path, strings.NewReader("<x/>"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s: %s %s: status %d, want 405", c.tier, c.method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != c.allow {
				t.Fatalf("%s: %s %s: Allow = %q, want %q", c.tier, c.method, path, allow, c.allow)
			}
		}
	}
}

func TestHeadCacheHasLengthNoBody(t *testing.T) {
	ts, _ := newIndexedServer(t)
	c := NewClient(ts.URL)
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "a=1", t0, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Head(ts.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD /cache: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl == 0 {
		t.Fatal("HEAD /cache: no Content-Length")
	}
}

// wantMetrics fails t for every sample line in want that the server's
// /metrics exposition does not hold verbatim ("name value").
func wantMetrics(t *testing.T, base string, want ...string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, line := range want {
		if !strings.Contains(string(body), "\n"+line+"\n") {
			t.Errorf("%q not in /metrics", line)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

func TestReadPathMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := depot.NewWithOptions(depot.NewIndexedCache(), depot.Options{Metrics: reg})
	ts := httptest.NewServer(NewServerMetrics(d, reg).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", t0, 990)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cache("site=sdsc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cache("site=nowhere"); err == nil {
		t.Fatal("query for absent branch succeeded")
	}
	_, tag, _, err := c.CacheConditional("site=sdsc", "")
	if err != nil {
		t.Fatal(err)
	}
	if tag != etagFor(1) {
		t.Fatalf("ETag after one store = %s, want generation 1", tag)
	}
	if _, _, notMod, err := c.CacheConditional("site=sdsc", tag); err != nil || !notMod {
		t.Fatalf("revalidation: notMod=%v err=%v", notMod, err)
	}

	wantMetrics(t, ts.URL,
		"inca_depot_received_total 1",
		"inca_depot_cache_entries 1",
		"inca_query_hits_total 2",
		"inca_query_misses_total 1",
		"inca_query_conditional_total 1",
		"inca_query_not_modified_total 1",
	)
}

func TestAvailabilityMemoization(t *testing.T) {
	d := depot.New(depot.NewIndexedCache())
	if err := d.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
		t.Fatal(err)
	}
	id := branch.MustParse("category=Grid,resource=r1")
	for i := 1; i <= 6; i++ {
		if err := d.ArchiveUpdate(id, consumer.AvailabilityPolicyName,
			t0.Add(time.Duration(i)*10*time.Minute), 100); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServerMetrics(d, metrics.NewRegistry()).Handler())
	defer ts.Close()

	u := ts.URL + "/availability?resource=r1&category=Grid&start=" +
		t0.Format(time.RFC3339) + "&end=" + t0.Add(2*time.Hour).Format(time.RFC3339)
	fetch := func() (string, string) {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("ETag")
	}

	first, tag := fetch()
	second, tag2 := fetch()
	if first != second || tag == "" || tag != tag2 {
		t.Fatalf("renders differ or tags odd: %q vs %q", tag, tag2)
	}
	wantMetrics(t, ts.URL,
		"inca_query_availability_renders_total 1",
		"inca_query_availability_memo_hits_total 1",
	)

	// An archive write alone — an evaluation cycle recording availability,
	// no report stored — changes the page, so it must move the memo and the
	// validator: both key on the archive generation, the only counter an
	// ArchiveUpdate advances.
	for i := 7; i <= 8; i++ {
		if err := d.ArchiveUpdate(id, consumer.AvailabilityPolicyName,
			t0.Add(time.Duration(i)*10*time.Minute), 0); err != nil {
			t.Fatal(err)
		}
	}
	third, tag3 := fetch()
	if tag3 == tag {
		t.Fatal("ETag unchanged after an archive write")
	}
	if third == first {
		t.Fatalf("stale page after an archive write:\n%s", third)
	}
	wantMetrics(t, ts.URL, "inca_query_availability_renders_total 2")

	// Conditional availability fetch: the old validator no longer holds,
	// the current one revalidates.
	for _, c := range []struct {
		inm  string
		want int
	}{{tag, http.StatusOK}, {tag3, http.StatusNotModified}} {
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		req.Header.Set("If-None-Match", c.inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("conditional availability with %s: status %d, want %d", c.inm, resp.StatusCode, c.want)
		}
	}

	// A report store touches no archive the page reads: same validator,
	// same bytes, from the memo.
	if _, err := d.Store(branch.MustParse("tool=x,site=s"), []byte("<rep><v>1</v></rep>")); err != nil {
		t.Fatal(err)
	}
	if fourth, tag4 := fetch(); tag4 != tag3 || fourth != third {
		t.Fatalf("report store moved the page: tag %q -> %q", tag3, tag4)
	}
}

func TestArchiveConditionalReads(t *testing.T) {
	ts, d := newIndexedServer(t)
	if err := d.AddPolicy(depot.Policy{
		Name:   "bw",
		Prefix: branch.MustParse("site=sdsc"),
		Path:   "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{
			Step: 10 * time.Minute, History: 24 * time.Hour,
		},
	}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(ts.URL)
	for i := 1; i <= 6; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Minute)
		if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", at, float64(900+i))); err != nil {
			t.Fatal(err)
		}
	}
	url := ts.URL + "/archive?branch=tool%3Dpathload%2Csite%3Dsdsc&policy=bw&cf=average" +
		"&start=" + t0.Format(time.RFC3339) + "&end=" + t0.Add(2*time.Hour).Format(time.RFC3339)

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /archive: %d %s", resp.StatusCode, body)
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on /archive")
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, len(body))
	}
	if !strings.HasPrefix(string(body), "time,value\n") {
		t.Fatalf("CSV body: %.60s", body)
	}

	// Revalidation with the current archive generation: 304, no body.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", tag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: %d, want 304", resp.StatusCode)
	}

	// HEAD carries the headers without the body.
	resp, err = http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	head, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(head) != 0 || resp.Header.Get("ETag") != tag {
		t.Fatalf("HEAD: %d body bytes, tag %q", len(head), resp.Header.Get("ETag"))
	}

	// A new archived sample invalidates the tag.
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", t0.Add(70*time.Minute), 800)); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", tag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == tag {
		t.Fatalf("after store: %d tag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if !strings.Contains(string(body2), "800") {
		t.Fatalf("stale body after invalidation: %s", body2)
	}

	// A cache-only store (no policy match) leaves the archive tag valid:
	// the archive generation is independent of the cache generation. So
	// does a store archived into a *different* series of the same policy —
	// the validator is scoped per (branch, policy), not depot-wide.
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=ncsa", t0.Add(2*time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=iperf,site=sdsc", t0.Add(2*time.Hour), 500)); err != nil {
		t.Fatal(err)
	}
	tag2 := resp.Header.Get("ETag")
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", tag2)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("unrelated store invalidated the archive tag: %d", resp.StatusCode)
	}
}
