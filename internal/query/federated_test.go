package query

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
)

// testFederation is an in-process federation: n real depots behind real
// HTTP servers, a router whose ring names them, and the scatter-gather
// tier in front — everything but the wire protocol.
type testFederation struct {
	fed    *httptest.Server
	router *federation.Router
	depots map[string]*depot.Depot // by ring name
	single *depot.Depot            // reference: one depot holding everything
	sts    *httptest.Server        // reference single-depot server
}

func newTestFederation(t *testing.T, n int) *testFederation {
	t.Helper()
	shards := make([]federation.Shard, n)
	depots := make(map[string]*depot.Depot, n)
	for i := 0; i < n; i++ {
		d := depot.New(nil)
		ts := httptest.NewServer(NewServer(d).Handler())
		t.Cleanup(ts.Close)
		name := fmt.Sprintf("shard%d", i)
		shards[i] = federation.Shard{Wire: name, HTTP: ts.URL}
		depots[name] = d
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fed := httptest.NewServer(NewFederated(router, FederatedOptions{}).Handler())
	t.Cleanup(fed.Close)

	single := depot.New(nil)
	sts := httptest.NewServer(NewServer(single).Handler())
	t.Cleanup(sts.Close)
	return &testFederation{fed: fed, router: router, depots: depots, single: single, sts: sts}
}

// store routes the envelope the way production ingest would — to the ring
// owner's depot — and mirrors it into the reference depot.
func (tf *testFederation) store(t *testing.T, env []byte) {
	t.Helper()
	id, err := envelopeAddress(env)
	if err != nil {
		t.Fatal(err)
	}
	owner := tf.router.Ring().Owner(id)
	if _, err := tf.depots[owner].StoreEnvelope(env); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.single.StoreEnvelope(env); err != nil {
		t.Fatal(err)
	}
}

func federationPopulation(t *testing.T, tf *testFederation, sites, probes int) {
	t.Helper()
	for s := 0; s < sites; s++ {
		for p := 0; p < probes; p++ {
			id := fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", p, s)
			tf.store(t, sampleEnvelope(t, id, t0.Add(time.Duration(s*probes+p)*time.Second), float64(100+p)))
		}
	}
}

func get(t *testing.T, base, path string, inm string) (int, string, []byte) {
	t.Helper()
	status, hdr, body := fetch(t, http.MethodGet, base+path, inm)
	return status, hdr.Get("ETag"), []byte(body)
}

// availabilityPopulation archives availability percentages the way an
// evaluation cycle does, each series on the shard owning its branch and
// mirrored into the reference depot. r3 has been evaluated in one category
// only, so its other rows are absent on both tiers.
func availabilityPopulation(t *testing.T, tf *testFederation) {
	t.Helper()
	for _, d := range tf.depots {
		if err := d.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tf.single.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
		t.Fatal(err)
	}
	cats := append(append([]agreement.Category(nil), agreement.Categories...), "Total")
	for r, res := range []string{"r1", "r2", "r3"} {
		for c, cat := range cats {
			if res == "r3" && c > 0 {
				break
			}
			id := branch.MustParse(fmt.Sprintf("category=%s,resource=%s", cat, res))
			for i := 1; i <= 6; i++ {
				at, pct := t0.Add(time.Duration(i)*10*time.Minute), float64(100-10*r-c-i)
				for _, d := range []*depot.Depot{tf.depots[tf.router.Ring().Owner(id)], tf.single} {
					if err := d.ArchiveUpdate(id, consumer.AvailabilityPolicyName, at, pct); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// fetch is one request's status, headers and body; inm, when set, is its
// If-None-Match.
func fetch(t *testing.T, method, target, inm string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestFederatedByteIdentity is the acceptance check: on every endpoint
// both tiers serve from data, the federated answer — status, Content-Type,
// Content-Length and body, for GET and for HEAD — must be the single
// depot's: /cache and /reports at the root, a shallow interior branch
// (scatter-merge) and a deep branch (owner-forward), /availability in its
// three formats, /stats, and the requests either tier refuses.
func TestFederatedByteIdentity(t *testing.T) {
	window := "start=" + t0.Format(time.RFC3339) + "&end=" + t0.Add(2*time.Hour).Format(time.RFC3339)
	avail := "/availability?resource=r1&resource=r2&resource=r3&resource=r4&" + window
	// A depot's cacheSize is the length of its cache document, and n shard
	// documents repeat the wrapper and the interior nodes one document has
	// once: the sum is the single depot's only when n is 1.
	cacheSize := regexp.MustCompile(`cacheSize="\d+"`)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			tf := newTestFederation(t, n)
			federationPopulation(t, tf, 12, 4)
			availabilityPopulation(t, tf)
			for _, p := range []struct {
				path   string
				status int
				tagged bool // the answer carries a composed ETag
			}{
				{"/cache?branch=", http.StatusOK, true},
				{"/cache?branch=vo%3Dtg", http.StatusOK, true},
				{"/cache?branch=site%3Ds03%2Cvo%3Dtg", http.StatusOK, true},
				{"/cache?branch=probe%3Dp01%2Csite%3Ds05%2Cvo%3Dtg", http.StatusOK, true},
				{"/reports?branch=", http.StatusOK, true},
				{"/reports?branch=vo%3Dtg", http.StatusOK, true},
				{"/reports?branch=site%3Ds07%2Cvo%3Dtg", http.StatusOK, true},
				{avail, http.StatusOK, true},
				{avail + "&format=text", http.StatusOK, true},
				{avail + "&format=json", http.StatusOK, true},
				{"/stats", http.StatusOK, false},
				{"/cache?branch=nonsense", http.StatusBadRequest, false},
				{"/reports?branch=nonsense", http.StatusBadRequest, false},
				{"/availability?" + window, http.StatusBadRequest, false},
				{"/availability?resource=r1&start=yesterday&end=" + t0.Format(time.RFC3339), http.StatusBadRequest, false},
			} {
				for _, method := range []string{http.MethodGet, http.MethodHead} {
					wantStatus, wantHdr, want := fetch(t, method, tf.sts.URL+p.path, "")
					gotStatus, gotHdr, got := fetch(t, method, tf.fed.URL+p.path, "")
					if wantStatus != p.status {
						t.Fatalf("%s %s: single depot status %d, want %d", method, p.path, wantStatus, p.status)
					}
					if gotStatus != wantStatus {
						t.Fatalf("%s %s: status %d, single depot %d", method, p.path, gotStatus, wantStatus)
					}
					if method == http.MethodHead && (got != "" || gotHdr.Get("Content-Length") == "") {
						t.Fatalf("HEAD %s: %d body bytes, Content-Length %q", p.path, len(got), gotHdr.Get("Content-Length"))
					}
					if p.path == "/stats" && n > 1 {
						got, want = cacheSize.ReplaceAllString(got, ""), cacheSize.ReplaceAllString(want, "")
						gotHdr.Del("Content-Length")
						wantHdr.Del("Content-Length")
					}
					if got != want {
						t.Fatalf("%s %s: federated answer differs from single depot\nfed:    %.200s\nsingle: %.200s", method, p.path, got, want)
					}
					for _, h := range []string{"Content-Type", "Content-Length"} {
						if gotHdr.Get(h) != wantHdr.Get(h) {
							t.Fatalf("%s %s: %s %q, single depot %q", method, p.path, h, gotHdr.Get(h), wantHdr.Get(h))
						}
					}
					if tag := gotHdr.Get("ETag"); p.tagged && !strings.HasPrefix(tag, `"f`) {
						t.Fatalf("%s %s: ETag %q is not a composed validator", method, p.path, tag)
					}
				}
			}
		})
	}
}

func TestFederatedNotFoundParity(t *testing.T) {
	tf := newTestFederation(t, 3)
	federationPopulation(t, tf, 4, 2)
	p := "/cache?branch=site%3Dnowhere%2Cvo%3Dother"
	wantStatus, _, want := get(t, tf.sts.URL, p, "")
	gotStatus, _, got := get(t, tf.fed.URL, p, "")
	if gotStatus != wantStatus || gotStatus != http.StatusNotFound {
		t.Fatalf("status = %d, want %d", gotStatus, wantStatus)
	}
	if strings.TrimSpace(string(got)) != strings.TrimSpace(string(want)) {
		t.Fatalf("404 body %q, single depot %q", got, want)
	}
}

// TestFederatedConditional drives the composed validator end-to-end:
// revalidation answers 304 with zero merge work, one shard's ingest
// invalidates, and a validator minted under a different topology never
// matches.
func TestFederatedConditional(t *testing.T) {
	tf := newTestFederation(t, 4)
	federationPopulation(t, tf, 8, 3)
	for i, p := range []string{"/cache?branch=", "/cache?branch=probe%3Dp00%2Csite%3Ds00%2Cvo%3Dtg", "/reports?branch=vo%3Dtg"} {
		status, tag, body := get(t, tf.fed.URL, p, "")
		if status != http.StatusOK || tag == "" {
			t.Fatalf("%s: status %d tag %q", p, status, tag)
		}
		status, tag2, _ := get(t, tf.fed.URL, p, tag)
		if status != http.StatusNotModified {
			t.Fatalf("%s: revalidation status %d, want 304", p, status)
		}
		if tag2 != tag {
			t.Fatalf("%s: 304 changed the validator %q -> %q", p, tag, tag2)
		}

		// New data on whichever shard owns this branch must invalidate.
		tf.store(t, sampleEnvelope(t, "probe=p00,site=s00,vo=tg", t0.Add(time.Duration(i+1)*time.Hour), float64(555+i)))
		status, tag3, body2 := get(t, tf.fed.URL, p, tag)
		if status != http.StatusOK {
			t.Fatalf("%s: post-ingest revalidation status %d, want 200", p, status)
		}
		if tag3 == tag {
			t.Fatalf("%s: validator unchanged across ingest", p)
		}
		if string(body2) == string(body) && strings.HasPrefix(p, "/cache?branch=probe") {
			t.Fatalf("%s: body unchanged across ingest", p)
		}
	}

	// A validator composed under another ring signature must never match.
	status, tag, _ := get(t, tf.fed.URL, "/cache?branch=", "")
	_ = status
	forged := `"fdeadbeef-` + strings.TrimPrefix(strings.Trim(tag, `"`)[strings.Index(strings.Trim(tag, `"`), "-")+1:], "") + `"`
	status, _, _ = get(t, tf.fed.URL, "/cache?branch=", forged)
	if status != http.StatusOK {
		t.Fatalf("forged-signature validator revalidated: status %d", status)
	}
}

// TestFederatedConditionalAcrossReplication: attaching a follower moves no
// read, so a composed validator minted before the attach still revalidates
// and the answer is byte for byte the one before; a promotion hands the
// slice to a process with its own generation counters, so it breaks every
// validator.
func TestFederatedConditionalAcrossReplication(t *testing.T) {
	tf := newTestFederation(t, 2)
	federationPopulation(t, tf, 8, 3)
	status, tag, _ := get(t, tf.fed.URL, "/cache?branch=", "")
	if status != http.StatusOK || tag == "" {
		t.Fatalf("/cache: status %d tag %q", status, tag)
	}
	_, _, before := get(t, tf.fed.URL, "/reports?branch=", "")
	admin := func(path string) {
		t.Helper()
		resp, err := http.Post(tf.fed.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s: %s", path, resp.Status, body)
		}
	}

	// An empty follower, attached without catch-up.
	follower := httptest.NewServer(NewServer(depot.New(nil)).Handler())
	t.Cleanup(follower.Close)
	admin("/federation/replicate?shard=shard0&follower=" + url.QueryEscape("follower0/"+follower.URL))
	if status, tag2, _ := get(t, tf.fed.URL, "/cache?branch=", tag); status != http.StatusNotModified || tag2 != tag {
		t.Fatalf("after attach: status %d tag %q, want 304 %q", status, tag2, tag)
	}
	if _, _, after := get(t, tf.fed.URL, "/reports?branch=", ""); string(after) != string(before) {
		t.Fatal("after attach: /reports differs from the body before it")
	}

	admin("/federation/promote?shard=shard0")
	if status, tag3, _ := get(t, tf.fed.URL, "/cache?branch=", tag); status != http.StatusOK || tag3 == tag {
		t.Fatalf("after promotion: status %d tag %q, want 200 and a tag other than %q", status, tag3, tag)
	}
}

// TestFederatedScatterRace exercises the scatter-gather merge under
// concurrent readers and writers; run with -race (make test does) it
// proves the fan-out shares no unsynchronized state.
func TestFederatedScatterRace(t *testing.T) {
	tf := newTestFederation(t, 4)
	federationPopulation(t, tf, 6, 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				status, _, _ := get(t, tf.fed.URL, "/cache?branch=", "")
				if status != http.StatusOK {
					t.Errorf("reader %d: status %d", w, status)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", i%2, i%6)
			env := sampleEnvelope(t, id, t0.Add(time.Duration(i)*time.Minute), float64(i))
			idp, err := envelopeAddress(env)
			if err != nil {
				t.Error(err)
				return
			}
			owner := tf.router.Ring().Owner(idp)
			if _, err := tf.depots[owner].StoreEnvelope(env); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestAvailabilityPageJSONRoundTrip(t *testing.T) {
	page := &consumer.AvailabilityPage{
		Title: "Availability overview",
		Start: t0,
		End:   t0.Add(24 * time.Hour),
		Rows: []consumer.AvailabilityRow{
			{Resource: "res1", Category: agreement.Categories[0], Spark: "▁▂▃", Mean: 99.5, Min: 80, Samples: 12},
			{Resource: "res2", Category: "Total", Spark: "", Mean: math.NaN(), Min: math.NaN(), Samples: 0},
		},
	}
	data, err := marshalAvailabilityPage(page)
	if err != nil {
		t.Fatal(err)
	}
	back, err := unmarshalAvailabilityPage(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Title != page.Title || !back.Start.Equal(page.Start) || len(back.Rows) != 2 {
		t.Fatalf("round trip lost shape: %+v", back)
	}
	if back.Rows[0].Mean != 99.5 || back.Rows[0].Samples != 12 {
		t.Fatalf("row 0 = %+v", back.Rows[0])
	}
	if !math.IsNaN(back.Rows[1].Mean) || !math.IsNaN(back.Rows[1].Min) {
		t.Fatalf("NaN not preserved: %+v", back.Rows[1])
	}
}

func TestComposeDecomposeTag(t *testing.T) {
	sig := "abc123"
	tag := composeTag(sig, []string{`"4"`, "", `"9"`})
	if tag != `"fabc123-4.-.9"` {
		t.Fatalf("composed = %s", tag)
	}
	got := decomposeTag(tag, sig, 3)
	if got == nil || got[0] != `"4"` || got[1] != "" || got[2] != `"9"` {
		t.Fatalf("decomposed = %v", got)
	}
	if decomposeTag(tag, "other", 3) != nil {
		t.Fatal("decomposed under wrong signature")
	}
	if decomposeTag(tag, sig, 2) != nil {
		t.Fatal("decomposed under wrong shard count")
	}
	multi := `W/"x", ` + tag + `, "y"`
	if decomposeTag(multi, sig, 3) == nil {
		t.Fatal("candidate list not searched")
	}
}

// envelopeAddress adapts envelope.Address for tests in this package.
func envelopeAddress(env []byte) (branch.ID, error) {
	return envelope.Address(env)
}

// TestFederatedConditionalPartial404 covers the empty-shard case: a
// branch held by only some shards composes "-" placeholders for the
// rest, and revalidation must still 304 while the empty shards stay
// empty — a shard that had nothing and still has nothing is unchanged.
// Data appearing on a formerly empty shard must invalidate.
func TestFederatedConditionalPartial404(t *testing.T) {
	tf := newTestFederation(t, 2)
	ring := tf.router.Ring()

	// Find sites on each side of the ring so one shard starts empty.
	var site0, site1 string
	for s := 0; s < 64 && (site0 == "" || site1 == ""); s++ {
		prefix := branch.ID{}.Child("vo", "tg").Child("site", fmt.Sprintf("s%02d", s))
		if ring.Owner(prefix) == "shard0" && site0 == "" {
			site0 = fmt.Sprintf("s%02d", s)
		} else if ring.Owner(prefix) == "shard1" && site1 == "" {
			site1 = fmt.Sprintf("s%02d", s)
		}
	}
	if site0 == "" || site1 == "" {
		t.Fatalf("degenerate placement: no site per shard in 64 candidates")
	}

	tf.store(t, sampleEnvelope(t, "probe=p00,site="+site0+",vo=tg", t0, 100))
	status, tag, _ := get(t, tf.fed.URL, "/cache?branch=", "")
	if status != http.StatusOK || tag == "" {
		t.Fatalf("cold fetch: status %d tag %q", status, tag)
	}
	if !strings.Contains(tag, "-") {
		t.Fatalf("tag %q has no placeholder for the empty shard", tag)
	}
	status, tag2, _ := get(t, tf.fed.URL, "/cache?branch=", tag)
	if status != http.StatusNotModified {
		t.Fatalf("revalidation with an empty shard: status %d, want 304", status)
	}
	if tag2 != tag {
		t.Fatalf("304 changed the validator %q -> %q", tag, tag2)
	}

	// First data on the empty shard must break the 304.
	tf.store(t, sampleEnvelope(t, "probe=p00,site="+site1+",vo=tg", t0.Add(time.Hour), 200))
	status, tag3, _ := get(t, tf.fed.URL, "/cache?branch=", tag)
	if status != http.StatusOK {
		t.Fatalf("post-ingest revalidation: status %d, want 200", status)
	}
	if tag3 == tag {
		t.Fatal("validator unchanged after the empty shard gained data")
	}
}

// TestFederatedMembershipCopiesReports drives the three administrative
// calls that move stored reports between depots: a join that migrates the
// ranges the new shard claims, a graceful leave that hands a shard's
// reports to their new owners, and a follower attach that catches up on
// its primary's history. After each, the federated answer is still the
// single depot's.
func TestFederatedMembershipCopiesReports(t *testing.T) {
	tf := newTestFederation(t, 2)
	federationPopulation(t, tf, 12, 4)
	// A namespaced report at every site: copying one stores its payload
	// again, which must store the same bytes.
	for s := 0; s < 12; s++ {
		id := branch.MustParse(fmt.Sprintf("probe=ns,site=s%02d,vo=tg", s))
		env, err := envelope.Encode(envelope.Body, id, []byte(`<r><x:pad xmlns:x="u">1</x:pad><v xmlns="w"/></r>`))
		if err != nil {
			t.Fatal(err)
		}
		tf.store(t, env)
	}
	admin := func(path, want string) string {
		t.Helper()
		resp, err := http.Post(tf.fed.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), want) {
			t.Fatalf("POST %s: %s: %s", path, resp.Status, body)
		}
		return string(body)
	}
	identical := func(when string) {
		t.Helper()
		for _, p := range []string{"/cache?branch=", "/reports?branch="} {
			_, _, want := get(t, tf.sts.URL, p, "")
			if _, _, got := get(t, tf.fed.URL, p, ""); string(got) != string(want) {
				t.Fatalf("%s: federated %s differs from the single depot", when, p)
			}
		}
	}
	newDepot := func() (*depot.Depot, string) {
		d := depot.New(nil)
		ts := httptest.NewServer(NewServer(d).Handler())
		t.Cleanup(ts.Close)
		return d, ts.URL
	}

	// Join: exactly the reports the new ring gives shard9 are copied to it.
	joined, joinedURL := newDepot()
	tf.depots["shard9"] = joined
	admin("/federation/join?migrate=1&shard="+url.QueryEscape("shard9/"+joinedURL), "joined shard9 (migrated ")
	owned := 0
	for _, d := range []*depot.Depot{tf.depots["shard0"], tf.depots["shard1"]} {
		stored, err := d.Cache().Reports(branch.ID{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stored {
			if tf.router.Ring().Owner(st.ID) == "shard9" {
				owned++
			}
		}
	}
	if got := joined.Cache().Count(); got != owned || owned == 0 {
		t.Fatalf("join migrated %d reports, the new ring gives shard9 %d", got, owned)
	}
	identical("after join")

	// Graceful leave: shard0's reports move to their new owners first.
	admin("/federation/leave?migrate=1&shard=shard0", "left shard0 (migrated ")
	identical("after leave")

	// Follower catch-up: the follower ends with its primary's history.
	follower, followerURL := newDepot()
	admin("/federation/replicate?catchup=1&shard=shard1&follower="+url.QueryEscape("follower1/"+followerURL), "replicating shard1 to follower1 (caught up ")
	if got, want := follower.Cache().Count(), tf.depots["shard1"].Cache().Count(); got != want || want == 0 {
		t.Fatalf("follower holds %d reports after catch-up, its primary %d", got, want)
	}
	if got, want := follower.Cache().Dump(), tf.depots["shard1"].Cache().Dump(); !bytes.Equal(got, want) {
		t.Fatalf("follower's document after catch-up differs from its primary's:\n%s\nwant\n%s", got, want)
	}
}
