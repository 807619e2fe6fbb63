package query

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/federation"
)

// feedFederation is an in-process federation whose shard servers all
// stream /feed, with the composed feed attached to the tier.
type feedFederation struct {
	fed    *httptest.Server
	tier   *Federated
	router *federation.Router
	depots map[string]*depot.Depot
	single *depot.Depot
	sts    *httptest.Server
}

// newFeedShard builds one depot server with a live /feed.
func newFeedShard(t *testing.T) (*httptest.Server, *depot.Depot) {
	t.Helper()
	d := depot.New(nil)
	sf := NewFeed(d, FeedOptions{})
	srv := NewServer(d)
	srv.Feed = sf
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		// The tier's watcher holds a streaming connection open; a plain
		// Close would wait on it forever when this shard tears down
		// before the tier does (a shard joined mid-test). The listener
		// goes first: the watcher redials as soon as its stream drops, and
		// a connection accepted after CloseClientConnections is one more
		// stream for Close to wait on.
		ts.Listener.Close()
		ts.CloseClientConnections()
		ts.Close()
		sf.Close()
	})
	return ts, d
}

func newFeedFederation(t *testing.T, n int) *feedFederation {
	t.Helper()
	shards := make([]federation.Shard, n)
	depots := make(map[string]*depot.Depot, n)
	for i := 0; i < n; i++ {
		ts, d := newFeedShard(t)
		name := fmt.Sprintf("shard%d", i)
		shards[i] = federation.Shard{Wire: name, HTTP: ts.URL}
		depots[name] = d
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewFederated(router, FederatedOptions{})
	ff := tier.AttachFeed(FeedOptions{})
	fed := httptest.NewServer(tier.Handler())
	t.Cleanup(func() {
		fed.Close()
		ff.Close()
	})

	single := depot.New(nil)
	sts := httptest.NewServer(NewServer(single).Handler())
	t.Cleanup(sts.Close)
	return &feedFederation{fed: fed, tier: tier, router: router, depots: depots, single: single, sts: sts}
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

// TestFederatedFeedByteIdentity is the acceptance check for the composed
// feed: a subscriber that catches up through the merged stream —
// snapshot plus change events applied in order — holds a state
// byte-identical to polling /cache, on both the federated tier and the
// reference single depot.
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
	seen := make(map[string]bool)
	var last FeedEvent
	for len(seen) < n {
		ev := nextEvent(t, fs, 10*time.Second)
		if ev.Type == "snapshot" {
			// A shard demotion mid-test replaces the state wholesale;
			// keep going from the fresh image.
			if state, err = depot.LoadDump(ev.Data, branch.ID{}); err != nil {
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

	materialized := string(state.Dump())
	_, _, fedPolled := get(t, tf.fed.URL, "/cache?branch=", "")
	_, _, singlePolled := get(t, tf.sts.URL, "/cache?branch=", "")
	if materialized != string(fedPolled) {
		t.Fatalf("feed-materialized state differs from polled federated /cache\nfeed: %.300s\npoll: %.300s", materialized, fedPolled)
	}
	if materialized != string(singlePolled) {
		t.Fatalf("feed-materialized state differs from the single depot\nfeed: %.300s\nsingle: %.300s", materialized, singlePolled)
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

	joining, _ := newFeedShard(t)
	resp, err := http.Post(tf.fed.URL+"/federation/join?shard="+url.QueryEscape("shard9/"+joining.URL), "", nil)
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

// TestFederatedFeedShardWithoutFeed: the tier refuses subscriptions
// (503, which the client maps to ErrFeedUnsupported) while any shard
// lacks /feed — a merged stream silently missing one shard's changes
// would break the cursor contract.
func TestFederatedFeedShardWithoutFeed(t *testing.T) {
	dPlain := depot.New(nil)
	plain := httptest.NewServer(NewServer(dPlain).Handler())
	t.Cleanup(plain.Close)
	withFeed, _ := newFeedShard(t)

	router, err := federation.NewRouter([]federation.Shard{
		{Wire: "shard0", HTTP: withFeed.URL},
		{Wire: "shard1", HTTP: plain.URL},
	}, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewFederated(router, FederatedOptions{})
	ff := tier.AttachFeed(FeedOptions{})
	fed := httptest.NewServer(tier.Handler())
	t.Cleanup(func() {
		fed.Close()
		ff.Close()
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
