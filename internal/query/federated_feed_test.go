package query

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/federation"
	"inca/internal/metrics"
)

// feedFederation is an in-process federation whose shard servers all
// stream /feed.
type feedFederation struct {
	fed    *httptest.Server
	tier   *Federated
	router *federation.Router
	depots map[string]*depot.Depot
	shards map[string]*feedShard
	single *depot.Depot
	sts    *httptest.Server
}

// feedShard is one depot server with a live /feed, its instruments on reg.
type feedShard struct {
	ts  *httptest.Server
	d   *depot.Depot
	reg *metrics.Registry

	mu   sync.Mutex
	feed *Feed
	h    http.Handler
}

func (s *feedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// serve puts feed in front of the depot.
func (s *feedShard) serve(feed *Feed) {
	srv := NewServer(s.d)
	srv.Feed = feed
	s.feed, s.h = feed, srv.Handler()
}

// restartFeed gives the depot a new feed, as a restart of the shard's
// process would: a new epoch, and every stream of the old feed dropped.
// The instruments on reg stay with the first feed.
func (s *feedShard) restartFeed() {
	s.mu.Lock()
	s.feed.Close()
	s.serve(NewFeed(s.d, FeedOptions{}))
	s.mu.Unlock()
	s.ts.CloseClientConnections()
}

// newFeedShard builds one depot server with a live /feed.
func newFeedShard(t *testing.T) *feedShard {
	t.Helper()
	s, start := unstartedFeedShard(t)
	start()
	return s
}

// unstartedFeedShard is newFeedShard with the server not yet serving: its
// listener is bound, so a request waits in the accept queue until start is
// called.
func unstartedFeedShard(t *testing.T) (s *feedShard, start func()) {
	t.Helper()
	s = &feedShard{d: depot.New(nil), reg: metrics.NewRegistry()}
	s.serve(NewFeed(s.d, FeedOptions{Metrics: s.reg}))
	s.ts = httptest.NewUnstartedServer(s)
	started := false
	t.Cleanup(func() {
		// A router subscriber's fan-in holds a streaming connection open;
		// a plain Close would wait on it forever when this shard tears
		// down before the tier does (a shard joined mid-test). The
		// listener goes first: the fan-in redials as soon as its stream
		// drops, and a connection accepted after CloseClientConnections
		// is one more stream for Close to wait on.
		s.ts.Listener.Close()
		if started {
			s.ts.CloseClientConnections()
			s.ts.Close()
		}
		s.mu.Lock()
		s.feed.Close()
		s.mu.Unlock()
	})
	return s, func() { started = true; s.ts.Start() }
}

func newFeedFederation(t *testing.T, n int) *feedFederation {
	t.Helper()
	shards := make([]federation.Shard, n)
	tf := &feedFederation{depots: make(map[string]*depot.Depot, n), shards: make(map[string]*feedShard, n)}
	for i := 0; i < n; i++ {
		s := newFeedShard(t)
		name := fmt.Sprintf("shard%d", i)
		shards[i] = federation.Shard{Wire: name, HTTP: s.ts.URL}
		tf.depots[name], tf.shards[name] = s.d, s
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tf.router = router
	tf.tier = NewFederated(router, FederatedOptions{})
	tf.fed = httptest.NewServer(tf.tier.Handler())
	t.Cleanup(func() {
		tf.fed.CloseClientConnections()
		tf.fed.Close()
		tf.tier.Close()
	})

	tf.single = depot.New(nil)
	tf.sts = httptest.NewServer(NewServer(tf.single).Handler())
	t.Cleanup(tf.sts.Close)
	return tf
}

func (tf *feedFederation) store(t *testing.T, env []byte) {
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

// materialize applies a subscriber's events onto state — a snapshot
// replaces it wholesale, a change is stored — until changes to n distinct
// branches have arrived, and returns the state and the last change.
func materialize(t *testing.T, fs *FeedStream, prefix branch.ID, state *depot.IndexedCache, n int) (*depot.IndexedCache, FeedEvent) {
	t.Helper()
	seen := make(map[string]bool)
	var last FeedEvent
	for len(seen) < n {
		ev := nextEvent(t, fs, 10*time.Second)
		if ev.Type == "snapshot" {
			// A shard demotion mid-test replaces the state wholesale;
			// keep going from the fresh image.
			var err error
			if state, err = depot.LoadDump(ev.Data, prefix); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if ev.Type != "change" {
			t.Fatalf("unexpected event %+v", ev)
		}
		fc, err := ev.Change()
		if err != nil {
			t.Fatal(err)
		}
		id, err := branch.Parse(fc.Branch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := state.Update(id, []byte(fc.Report)); err != nil {
			t.Fatal(err)
		}
		seen[fc.Branch] = true
		last = ev
	}
	return state, last
}

// TestFederatedFeedByteIdentity is the acceptance check for the composed
// feed: a subscriber that catches up through the merged stream —
// snapshot plus change events applied in order — holds a state
// byte-identical to polling /cache, on both the federated tier and the
// reference single depot. A second subscriber, on one site's subtree and
// attached at the same time, holds that subtree's polled state.
func TestFederatedFeedByteIdentity(t *testing.T) {
	tf := newFeedFederation(t, 3)
	c := NewClient(tf.fed.URL)

	fs, err := c.FeedSubscribe("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	snap := nextEvent(t, fs, 10*time.Second)
	if snap.Type != "snapshot" {
		t.Fatalf("first event = %+v, want snapshot", snap)
	}
	if !strings.HasPrefix(snap.Cursor, "f"+tf.router.Ring().Signature()+"-") {
		t.Fatalf("cursor %q not composed under ring signature %q", snap.Cursor, tf.router.Ring().Signature())
	}
	site := branch.MustParse("site=s01,vo=tg")
	siteFS, err := c.FeedSubscribe(site.String(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer siteFS.Close()
	if ev := nextEvent(t, siteFS, 10*time.Second); ev.Type != "snapshot" || len(ev.Data) != 0 {
		t.Fatalf("site subscriber's first event = %+v, want an empty snapshot", ev)
	}

	// Materialize the consumer's state from the stream.
	state := depot.NewIndexedCache()
	if len(snap.Data) > 0 {
		if state, err = depot.LoadDump(snap.Data, branch.ID{}); err != nil {
			t.Fatal(err)
		}
	}
	const n = 12
	for s := 0; s < 4; s++ {
		for p := 0; p < 3; p++ {
			id := fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", p, s)
			tf.store(t, sampleEnvelope(t, id, t0.Add(time.Duration(s*3+p)*time.Second), float64(100+p)))
		}
	}
	state, last := materialize(t, fs, branch.ID{}, state, n)

	materialized := string(state.Dump())
	_, _, fedPolled := get(t, tf.fed.URL, "/cache?branch=", "")
	_, _, singlePolled := get(t, tf.sts.URL, "/cache?branch=", "")
	if materialized != string(fedPolled) {
		t.Fatalf("feed-materialized state differs from polled federated /cache\nfeed: %.300s\npoll: %.300s", materialized, fedPolled)
	}
	if materialized != string(singlePolled) {
		t.Fatalf("feed-materialized state differs from the single depot\nfeed: %.300s\nsingle: %.300s", materialized, singlePolled)
	}

	siteState, _ := materialize(t, siteFS, site, depot.NewIndexedCache(), 3)
	siteMaterialized, _, err := siteState.Query(site)
	if err != nil {
		t.Fatal(err)
	}
	_, _, fedSite := get(t, tf.fed.URL, "/cache?branch="+url.QueryEscape(site.String()), "")
	_, _, singleSite := get(t, tf.sts.URL, "/cache?branch="+url.QueryEscape(site.String()), "")
	if string(siteMaterialized) != string(fedSite) {
		t.Fatalf("site subscriber's state differs from polled federated /cache\nfeed: %.300s\npoll: %.300s", siteMaterialized, fedSite)
	}
	if string(siteMaterialized) != string(singleSite) {
		t.Fatalf("site subscriber's state differs from the single depot\nfeed: %.300s\nsingle: %.300s", siteMaterialized, singleSite)
	}

	// The last composed cursor is current: reconnecting with it resumes
	// live with no snapshot.
	fs2, err := c.FeedSubscribe("", last.Cursor, "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if ev := nextEvent(t, fs2, 10*time.Second); ev.Type != "resume" {
		t.Fatalf("reconnect with current cursor got %+v, want resume", ev)
	}

	// A stale cursor yields a catch-up snapshot identical to polling.
	fs3, err := c.FeedSubscribe("", snap.Cursor, "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	catch := nextEvent(t, fs3, 10*time.Second)
	if catch.Type != "snapshot" {
		t.Fatalf("stale reconnect got %+v, want snapshot", catch)
	}
	if string(catch.Data) != string(fedPolled) {
		t.Fatalf("catch-up snapshot differs from polled /cache\nfeed: %.300s\npoll: %.300s", catch.Data, fedPolled)
	}
}

// TestFederatedFeedMembershipResync: a join changes the ring signature,
// so every attached subscriber is demoted to a fresh merged snapshot
// under the new topology — composed cursors never straddle a membership
// change.
func TestFederatedFeedMembershipResync(t *testing.T) {
	tf := newFeedFederation(t, 2)
	c := NewClient(tf.fed.URL)

	fs, err := c.FeedSubscribe("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	snap := nextEvent(t, fs, 10*time.Second)
	if snap.Type != "snapshot" {
		t.Fatalf("first event = %+v", snap)
	}
	oldSig := tf.router.Ring().Signature()

	joining := newFeedShard(t)
	resp, err := http.Post(tf.fed.URL+"/federation/join?shard="+url.QueryEscape("shard9/"+joining.ts.URL), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s", resp.Status)
	}

	re := nextEvent(t, fs, 10*time.Second)
	if re.Type != "snapshot" {
		t.Fatalf("post-join event = %+v, want forced snapshot", re)
	}
	newSig := tf.router.Ring().Signature()
	if newSig == oldSig {
		t.Fatal("join did not change the ring signature")
	}
	if !strings.HasPrefix(re.Cursor, "f"+newSig+"-") {
		t.Fatalf("post-join cursor %q not under new signature %q", re.Cursor, newSig)
	}
}

// TestFederatedFeedShardRestart: a shard whose feed restarts under a
// router subscriber (a new epoch, its streams dropped) cannot resume the
// subscriber's part of the cursor, so the subscriber takes a merged
// snapshot in-stream, under the same signature, and goes on streaming.
func TestFederatedFeedShardRestart(t *testing.T) {
	tf := newFeedFederation(t, 2)
	for s := 0; s < 4; s++ {
		tf.store(t, sampleEnvelope(t, fmt.Sprintf("probe=p00,site=s%02d,vo=tg", s), t0, 1))
	}
	fs, err := NewClient(tf.fed.URL).FeedSubscribe("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	first := nextEvent(t, fs, 10*time.Second)
	if first.Type != "snapshot" {
		t.Fatalf("first event = %+v, want snapshot", first)
	}

	tf.shards["shard0"].restartFeed()
	re := nextEvent(t, fs, 10*time.Second)
	if re.Type != "snapshot" {
		t.Fatalf("after the shard's feed restarted the subscriber got %+v, want a snapshot", re)
	}
	sig := tf.router.Signature()
	if !strings.HasPrefix(re.Cursor, "f"+sig+"-") || re.Cursor == first.Cursor {
		t.Fatalf("in-stream snapshot cursor %q, want a new one under signature %q (first %q)", re.Cursor, sig, first.Cursor)
	}
	_, _, polled := get(t, tf.fed.URL, "/cache?branch=", "")
	if string(re.Data) != string(polled) {
		t.Fatalf("in-stream snapshot differs from polled /cache\nfeed: %.300s\npoll: %.300s", re.Data, polled)
	}

	// The stream stays open: a store on the restarted shard arrives.
	for s := 0; ; s++ {
		id := branch.MustParse(fmt.Sprintf("probe=p01,site=s%02d,vo=tg", s))
		if tf.router.Ring().Owner(id) != "shard0" {
			continue
		}
		tf.store(t, sampleEnvelope(t, id.String(), t0, 2))
		for {
			ev := nextEvent(t, fs, 10*time.Second)
			if ev.Type == "snapshot" {
				continue // the redial raced the dropped connections
			}
			if fc, err := ev.Change(); ev.Type != "change" || err != nil || fc.Branch != id.String() {
				t.Fatalf("after the restart the subscriber got %+v, want the change to %s", ev, id)
			}
			return
		}
	}
}

// TestFederatedFeedShardWithoutFeed: the tier refuses subscriptions
// (503, which the client maps to ErrFeedUnsupported) while any shard
// lacks /feed — a merged stream silently missing one shard's changes
// would break the cursor contract.
func TestFederatedFeedShardWithoutFeed(t *testing.T) {
	dPlain := depot.New(nil)
	plain := httptest.NewServer(NewServer(dPlain).Handler())
	t.Cleanup(plain.Close)
	withFeed := newFeedShard(t)

	router, err := federation.NewRouter([]federation.Shard{
		{Wire: "shard0", HTTP: withFeed.ts.URL},
		{Wire: "shard1", HTTP: plain.URL},
	}, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewFederated(router, FederatedOptions{})
	fed := httptest.NewServer(tier.Handler())
	t.Cleanup(func() {
		fed.Close()
		tier.Close()
	})

	c := NewClient(fed.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs, err := c.FeedSubscribe("", "", "")
		if errors.Is(err, ErrFeedUnsupported) {
			return // 503: the plain shard was detected
		}
		if err == nil {
			fs.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("tier kept serving /feed with a feed-less shard (last err: %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
