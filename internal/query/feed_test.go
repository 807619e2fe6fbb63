package query

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

func newFeedServer(t *testing.T, opts FeedOptions) (*httptest.Server, *depot.Depot) {
	t.Helper()
	d := depot.New(nil)
	f := NewFeed(d, opts)
	s := NewServer(d)
	s.Feed = f
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		f.Close()
		d.Close()
	})
	return ts, d
}

// nextEvent reads one feed event with a deadline.
func nextEvent(t *testing.T, fs *FeedStream, timeout time.Duration) FeedEvent {
	t.Helper()
	type res struct {
		ev  FeedEvent
		err error
	}
	ch := make(chan res, 1)
	go func() {
		ev, err := fs.Next()
		ch <- res{ev, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("feed next: %v", r.err)
		}
		return r.ev
	case <-time.After(timeout):
		t.Fatalf("no feed event within %v", timeout)
	}
	return FeedEvent{}
}

func TestFeedSSEEndToEnd(t *testing.T) {
	ts, d := newFeedServer(t, FeedOptions{})
	c := NewClient(ts.URL)

	fs, err := c.FeedSubscribe("site=sdsc", "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	snap := nextEvent(t, fs, 5*time.Second)
	if snap.Type != "snapshot" || snap.Cursor == "" {
		t.Fatalf("first event = %+v, want snapshot with cursor", snap)
	}
	if len(snap.Data) != 0 {
		t.Fatalf("empty depot should snapshot empty, got %q", snap.Data)
	}

	// Store two matching reports and one outside the prefix.
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=sdsc", t0, 990)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=pathload,site=ncsa", t0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StoreEnvelope(sampleEnvelope(t, "tool=iperf,site=sdsc", t0, 991)); err != nil {
		t.Fatal(err)
	}

	ev1 := nextEvent(t, fs, 5*time.Second)
	ev2 := nextEvent(t, fs, 5*time.Second)
	for i, ev := range []FeedEvent{ev1, ev2} {
		if ev.Type != "change" {
			t.Fatalf("event %d type = %q", i, ev.Type)
		}
		fc, err := ev.Change()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(fc.Branch, "site=sdsc") {
			t.Fatalf("event outside subscription prefix: %+v", fc)
		}
		if fc.Kind != "report" || !strings.Contains(fc.Report, "<body>") {
			t.Fatalf("change body missing report: %+v", fc)
		}
	}
	if ev1.Cursor == "" || ev2.Cursor == "" || ev1.Cursor == ev2.Cursor {
		t.Fatalf("cursors not distinct: %q %q", ev1.Cursor, ev2.Cursor)
	}

	// Reconnect with the latest cursor: live resume, no snapshot.
	// (ev2 is the newest matching event, but a non-matching store came
	// after nothing — the depot's last commit was tool=iperf,site=sdsc,
	// which matched too, so ev2's cursor is the depot's newest.)
	fs2, err := c.FeedSubscribe("site=sdsc", ev2.Cursor, "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if ev := nextEvent(t, fs2, 5*time.Second); ev.Type != "resume" {
		t.Fatalf("up-to-date reconnect got %+v, want resume", ev)
	}

	// Reconnect with a stale cursor: snapshot catch-up, byte-identical
	// to a polled /cache of the same subtree.
	fs3, err := c.FeedSubscribe("site=sdsc", ev1.Cursor, "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	catch := nextEvent(t, fs3, 5*time.Second)
	if catch.Type != "snapshot" {
		t.Fatalf("stale reconnect got %+v, want snapshot", catch)
	}
	polled, err := c.Cache("site=sdsc")
	if err != nil {
		t.Fatal(err)
	}
	if string(catch.Data) != string(polled) {
		t.Fatalf("snapshot != polled /cache:\nfeed %q\npoll %q", catch.Data, polled)
	}
	_ = d
}

// TestFeedPrefixSubscriberMirrorsAtFullIdentifiers: the snapshot of a
// subscription at a non-root prefix is that prefix's own subtree, which
// does not carry its ancestors. The consumer's loader restores it under the
// prefix, so a change to a snapshotted branch replaces the mirrored entry
// (restored at a truncated identifier it would be added beside it) and the
// mirror holds exactly what the server's Reports(prefix) holds.
func TestFeedPrefixSubscriberMirrorsAtFullIdentifiers(t *testing.T) {
	ts, d := newFeedServer(t, FeedOptions{})
	c := NewClient(ts.URL)
	prefix := branch.MustParse("site=sdsc,vo=tg")
	for _, id := range []string{"resource=a,site=sdsc,vo=tg", "resource=b,site=sdsc,vo=tg", "resource=a,site=ncsa,vo=tg"} {
		if _, err := c.StoreEnvelope(sampleEnvelope(t, id, t0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := c.FeedSubscribe(prefix.String(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	snap := nextEvent(t, fs, 5*time.Second)
	if snap.Type != "snapshot" {
		t.Fatalf("first event = %+v, want snapshot", snap)
	}
	mirror, err := depot.LoadDump(snap.Data, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if mirror.Count() != 2 {
		t.Fatalf("snapshot mirrored %d entries, want 2:\n%s", mirror.Count(), mirror.Dump())
	}

	if _, err := c.StoreEnvelope(sampleEnvelope(t, "resource=a,site=sdsc,vo=tg", t0.Add(time.Minute), 2)); err != nil {
		t.Fatal(err)
	}
	fc, err := nextEvent(t, fs, 5*time.Second).Change()
	if err != nil {
		t.Fatal(err)
	}
	added, err := mirror.Update(branch.MustParse(fc.Branch), []byte(fc.Report))
	if err != nil || added || mirror.Count() != 2 {
		t.Fatalf("change to the snapshotted %s: added=%v err=%v count=%d, want a replacement:\n%s",
			fc.Branch, added, err, mirror.Count(), mirror.Dump())
	}
	want, err := d.Cache().Reports(prefix)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := mirror.Reports(branch.ID{})
	if len(got) != len(want) {
		t.Fatalf("mirror holds %d reports, server %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].ID.Equal(want[i].ID) || string(got[i].XML) != string(want[i].XML) {
			t.Fatalf("mirror entry %d is %s %s, server has %s %s", i, got[i].ID, got[i].XML, want[i].ID, want[i].XML)
		}
	}
}

func statusReport(t *testing.T, resource string, pass bool) []byte {
	t.Helper()
	r := report.New("grid.version.globus", "1.0", resource, time.Now().UTC())
	if pass {
		r.Body = report.Branch("package", "globus", report.Leaf("version", "2.4.3"))
	} else {
		r.Fail("globus exploded")
	}
	data, err := report.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFeedStatusStream(t *testing.T) {
	ag := &agreement.Agreement{
		Name: "mini",
		Packages: []agreement.PackageReq{
			{Name: "globus", Category: agreement.Grid, Version: agreement.Constraint{Op: "any"}},
		},
	}
	ts, d := newFeedServer(t, FeedOptions{Agreement: ag})
	c := NewClient(ts.URL)

	fs, err := c.FeedSubscribe("", "", "status")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	snap := nextEvent(t, fs, 5*time.Second)
	if snap.Type != "snapshot" {
		t.Fatalf("first status event = %+v", snap)
	}

	// A green resource appears.
	id := branch.MustParse("reporter=grid.version.globus,resource=r1,site=sdsc")
	if _, err := d.Store(id, statusReport(t, "r1", true)); err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, fs, 5*time.Second)
	if ev.Type != "status" {
		t.Fatalf("status delta type = %q", ev.Type)
	}
	var row statusRowJSON
	if err := json.Unmarshal(ev.Data, &row); err != nil {
		t.Fatal(err)
	}
	if row.Resource != "r1" || row.Total == nil || row.Total.Fail != 0 || row.Total.Pass != 1 {
		t.Fatalf("green delta row: %+v", row)
	}

	// It goes red: exactly one more delta, now failing.
	if _, err := d.Store(id, statusReport(t, "r1", false)); err != nil {
		t.Fatal(err)
	}
	ev = nextEvent(t, fs, 5*time.Second)
	if err := json.Unmarshal(ev.Data, &row); err != nil {
		t.Fatal(err)
	}
	if row.Total == nil || row.Total.Fail != 1 || len(row.Failures) != 1 {
		t.Fatalf("red delta row: %+v", row)
	}

	// /summary reflects the same state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := c.get("/summary", nil)
		if err != nil {
			t.Fatal(err)
		}
		var page statusPageJSON
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Resources) == 1 && page.Resources[0].Total != nil && page.Resources[0].Total.Fail == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("summary never converged: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFeedUnsupportedFallsBack(t *testing.T) {
	ts, _ := newTestServer(t) // no Feed configured
	c := NewClient(ts.URL)
	if _, err := c.FeedSubscribe("", "", ""); !errors.Is(err, ErrFeedUnsupported) {
		t.Fatalf("err = %v, want ErrFeedUnsupported", err)
	}
}

// TestIdleFeedCostsNothing: with no subscriber attached, a store into a
// depot with a change feed allocates exactly as often as one into a depot
// without: the hub stamps the commit and renders neither the cursor nor the
// payload.
func TestIdleFeedCostsNothing(t *testing.T) {
	id := branch.MustParse("host=a.example.org,site=sdsc")
	rep := []byte(`<r><v>1</v></r>`)
	allocs := func(d *depot.Depot) float64 {
		if _, err := d.Store(id, rep); err != nil { // the entry's trie nodes
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := d.Store(id, rep); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := allocs(depot.New(nil))
	d := depot.New(nil)
	f := NewFeed(d, FeedOptions{})
	defer f.Close()
	if fed := allocs(d); fed != bare {
		t.Fatalf("a store allocates %v times with an idle feed attached, %v without", fed, bare)
	}
}

// TestIdleRouterCostsShardsNothing: the router subscribes to a shard's
// feed only on behalf of a subscriber of its own, so while it has none no
// shard keeps a subscription for it (and renders no change for it); one
// subscriber costs each shard one subscription, for as long as it stays.
func TestIdleRouterCostsShardsNothing(t *testing.T) {
	tf := newFeedFederation(t, 2)
	subscribers := func(s *feedShard) string {
		var text strings.Builder
		if err := s.reg.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		const family = `inca_feed_subscribers{feed="depot"} `
		for _, line := range strings.Split(text.String(), "\n") {
			if v, ok := strings.CutPrefix(line, family); ok {
				return v
			}
		}
		t.Fatalf("no %s sample in the shard's exposition", family)
		return ""
	}
	awaitSubscribers := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for name, s := range tf.shards {
			for got := subscribers(s); got != want; got = subscribers(s) {
				if time.Now().After(deadline) {
					t.Fatalf("%s has %s feed subscribers, want %s", name, got, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	for name, s := range tf.shards {
		if got := subscribers(s); got != "0" {
			t.Fatalf("with no router subscriber %s has %s feed subscribers, want 0", name, got)
		}
	}

	fs, err := NewClient(tf.fed.URL).FeedSubscribe("site=s01,vo=tg", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, fs, 10*time.Second); ev.Type != "snapshot" {
		t.Fatalf("first event = %+v, want snapshot", ev)
	}
	awaitSubscribers("1")
	fs.Close()
	awaitSubscribers("0")
}
