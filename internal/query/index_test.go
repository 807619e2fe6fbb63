package query

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/federation"
)

// newIndexFederation is newTestFederation over two shards whose handlers
// pass through wrap, with the tier itself returned so a test can read its
// counters.
func newIndexFederation(t *testing.T, wrap func(http.Handler) http.Handler) (*testFederation, *Federated) {
	t.Helper()
	tf := &testFederation{depots: map[string]*depot.Depot{}}
	var shards []federation.Shard
	for i := 0; i < 2; i++ {
		d := depot.New(nil)
		ts := httptest.NewServer(wrap(NewServer(d).Handler()))
		t.Cleanup(ts.Close)
		name := fmt.Sprintf("shard%d", i)
		shards = append(shards, federation.Shard{Wire: name, HTTP: ts.URL})
		tf.depots[name] = d
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewFederated(router, FederatedOptions{})
	t.Cleanup(tier.Close)
	tf.router = router
	tf.fed = httptest.NewServer(tier.Handler())
	t.Cleanup(tf.fed.Close)
	tf.single = depot.New(nil)
	tf.sts = httptest.NewServer(NewServer(tf.single).Handler())
	t.Cleanup(tf.sts.Close)
	federationPopulation(t, tf, 12, 4)
	return tf, tier
}

// editIndex passes a shard's answers through with their child index
// header rewritten by edit; "" drops it.
func editIndex(edit func(string) string) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			if v := rec.Header().Get(federation.IndexHeader); v != "" {
				w.Header().Del(federation.IndexHeader)
				if v = edit(v); v != "" {
					w.Header().Set(federation.IndexHeader, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
}

// mergedReads are the reads a router answers by a merge, and the snapshot
// a feed subscriber starts from.
var mergedReads = []string{"/cache?branch=", "/cache?branch=vo%3Dtg"}

// checkMergedReads fetches every merged read from the router and from the
// single depot, and from the subscriber's snapshot routine, and holds them
// to the same bytes. It returns how many merges the tier made.
func checkMergedReads(t *testing.T, tf *testFederation, tier *Federated) uint64 {
	t.Helper()
	before := tier.merges.Value()
	for _, p := range mergedReads {
		_, wantHdr, want := fetch(t, http.MethodGet, tf.sts.URL+p, "")
		status, hdr, got := fetch(t, http.MethodGet, tf.fed.URL+p, "")
		if status != http.StatusOK || got != want || hdr.Get("Content-Length") != wantHdr.Get("Content-Length") {
			t.Fatalf("GET %s: status %d, federated answer differs from the single depot", p, status)
		}
		if v := hdr.Get(federation.IndexHeader); v != "" {
			t.Fatalf("GET %s: the router sent a child index of its own: %.40q", p, v)
		}
	}
	snap, err := tier.mergedSnapshot(context.Background(), branch.ID{})
	if err != nil || !bytes.Equal(snap, tf.single.Cache().Dump()) {
		t.Fatalf("merged snapshot: err %v, differs from the single depot's document", err)
	}
	if n := tier.merges.Value() - before; n != uint64(len(mergedReads))+1 {
		t.Fatalf("%d merges for %d merged reads and a snapshot", n, len(mergedReads))
	}
	return uint64(len(mergedReads)) + 1
}

// With the shards' own child index every merge reads it, and no shard
// document is scanned; a request that does not ask gets no index.
func TestFederatedMergeReadsShardIndex(t *testing.T) {
	tf, tier := newIndexFederation(t, func(h http.Handler) http.Handler { return h })
	checkMergedReads(t, tf, tier)
	if n := tier.mergeScans.Value(); n != 0 {
		t.Fatalf("inca_federated_merge_scans_total = %d with every index sent", n)
	}
	for _, s := range tf.router.Shards() {
		_, hdr, _ := fetch(t, http.MethodGet, s.BaseURL()+"/cache?branch=", "")
		if v, ok := hdr[federation.IndexHeader]; ok {
			t.Fatalf("shard %s sent a child index nobody asked for: %.40q", s.Name(), v)
		}
	}
}

// A shard document whose index is missing, or does not fit it, is split
// by scan: the answer is the same bytes, and the merge counts as a scan.
func TestFederatedMergeScansWithoutIndex(t *testing.T) {
	for name, edit := range map[string]func(string) string{
		"stripped": func(string) string { return "" },
		// One byte short of each </branch>: every entry fails its check.
		"corrupted": func(v string) string {
			head, list, _ := strings.Cut(v, ":")
			entries := strings.Split(list, ",")
			for i, e := range entries {
				var n int
				fmt.Sscan(e, &n)
				entries[i] = fmt.Sprint(n - 1)
			}
			return head + ":" + strings.Join(entries, ",")
		},
	} {
		t.Run(name, func(t *testing.T) {
			tf, tier := newIndexFederation(t, editIndex(edit))
			merges := checkMergedReads(t, tf, tier)
			if n := tier.mergeScans.Value(); n != merges {
				t.Fatalf("inca_federated_merge_scans_total = %d after %d merges without a usable index", n, merges)
			}
		})
	}
}
