package feed

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inca/internal/branch"
)

func mustParse(t *testing.T, s string) branch.ID {
	t.Helper()
	id, err := branch.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return id
}

// drainWait blocks until the subscriber yields events or a resync flag,
// or the timeout expires.
func drainWait(t *testing.T, s *Subscriber, timeout time.Duration) ([]Event, bool) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		if ev, resync := s.Drain(); len(ev) > 0 || resync {
			return ev, resync
		}
		select {
		case <-s.Ready():
		case <-s.Done():
			return nil, false
		case <-deadline:
			t.Fatalf("drainWait: nothing after %v", timeout)
		}
	}
}

func TestPublishDeliversToMatchingPrefix(t *testing.T) {
	h := NewHub(Options{})
	resA := mustParse(t, "host=a.example.org,site=sdsc")
	resB := mustParse(t, "host=b.example.org,site=ncsa")
	site := mustParse(t, "site=sdsc")

	sub, needSnap, cur := h.Subscribe(site, "")
	defer sub.Close()
	if !needSnap {
		t.Fatalf("fresh subscriber should need a snapshot")
	}
	if cur == "" {
		t.Fatalf("empty current cursor")
	}
	// Up-to-date reconnect resumes live.
	sub2, needSnap2, _ := h.Subscribe(site, cur)
	defer sub2.Close()
	if needSnap2 {
		t.Fatalf("reconnect with current cursor should not need a snapshot")
	}

	h.Publish(Event{Branch: resA, Kind: KindReport, Data: []byte("<a/>")})
	h.Publish(Event{Branch: resB, Kind: KindReport, Data: []byte("<b/>")})

	ev, resync := drainWait(t, sub, time.Second)
	if resync {
		t.Fatalf("unexpected resync")
	}
	if len(ev) != 1 || !ev[0].Branch.Equal(resA) {
		t.Fatalf("want only the site=sdsc event, got %v", ev)
	}
	if ev[0].Cursor == "" || ev[0].Cursor != h.LastCursor() {
		// resB was published after resA, so sub's event cursor is older
		// than the hub's newest.
		if ev[0].Cursor == "" {
			t.Fatalf("event missing cursor")
		}
	}
}

func TestPolicyEventsReachEverySubscriber(t *testing.T) {
	h := NewHub(Options{})
	sub, _, _ := h.Subscribe(mustParse(t, "site=sdsc"), "")
	defer sub.Close()
	h.Publish(Event{Branch: mustParse(t, "site=ncsa"), Kind: KindPolicy, Key: "pol", Data: []byte("pol")})
	ev, _ := drainWait(t, sub, time.Second)
	if len(ev) != 1 || ev[0].Kind != KindPolicy {
		t.Fatalf("policy event not delivered: %v", ev)
	}
}

func TestCoalescingLatestWins(t *testing.T) {
	h := NewHub(Options{})
	res := mustParse(t, "host=a.example.org,site=sdsc")
	other := mustParse(t, "host=b.example.org,site=sdsc")
	sub, _, _ := h.Subscribe(branch.ID{}, "")
	defer sub.Close()

	h.Publish(Event{Branch: res, Kind: KindReport, Data: []byte("v1")})
	h.Publish(Event{Branch: other, Kind: KindReport, Data: []byte("x1")})
	h.Publish(Event{Branch: res, Kind: KindReport, Data: []byte("v2")})
	h.Publish(Event{Branch: res, Kind: KindReport, Data: []byte("v3")})

	ev, resync := drainWait(t, sub, time.Second)
	if resync {
		t.Fatalf("unexpected resync")
	}
	if len(ev) != 2 {
		t.Fatalf("want 2 coalesced events, got %d: %v", len(ev), ev)
	}
	// Drain restores stamp order: "x1" (stamp 2) before "v3" (stamp 4).
	if string(ev[0].Data) != "x1" || string(ev[1].Data) != "v3" {
		t.Fatalf("coalescing kept wrong payloads/order: %q, %q", ev[0].Data, ev[1].Data)
	}
	if !(ev[0].seq < ev[1].seq) {
		t.Fatalf("drain not in stamp order: %d, %d", ev[0].seq, ev[1].seq)
	}
	if ev[1].Cursor != h.LastCursor() {
		t.Fatalf("latest coalesced event should carry the newest cursor")
	}
}

func TestSlowSubscriberDemotion(t *testing.T) {
	h := NewHub(Options{QueueLimit: 4})
	sub, _, _ := h.Subscribe(branch.ID{}, "")
	defer sub.Close()
	for i := 0; i < 10; i++ {
		id := mustParse(t, fmt.Sprintf("host=h%d.example.org,site=sdsc", i))
		h.Publish(Event{Branch: id, Kind: KindReport, Data: []byte("r")})
	}
	ev, resync := drainWait(t, sub, time.Second)
	if !resync || len(ev) != 0 {
		t.Fatalf("want demotion with no events, got %d events resync=%v", len(ev), resync)
	}
	cur := sub.Resync()
	if cur != h.LastCursor() {
		t.Fatalf("resync cursor %q != hub cursor %q", cur, h.LastCursor())
	}
	// After resync the subscriber queues again.
	h.Publish(Event{Branch: mustParse(t, "host=h0.example.org,site=sdsc"), Kind: KindReport, Data: []byte("r2")})
	ev, resync = drainWait(t, sub, time.Second)
	if resync || len(ev) != 1 {
		t.Fatalf("post-resync delivery broken: %d events resync=%v", len(ev), resync)
	}
}

func TestCursorsStrictlyIncreaseAndFloorOnSource(t *testing.T) {
	var gen atomic.Uint64
	h := NewHub(Options{CursorSource: func() uint64 { return gen.Load() }, Epoch: "e"})
	sub, _, _ := h.Subscribe(branch.ID{}, "")
	defer sub.Close()
	id := mustParse(t, "host=a.example.org,site=sdsc")

	c1 := h.Publish(Event{Branch: id, Kind: KindReport, Key: "1"})
	gen.Store(100)
	c2 := h.Publish(Event{Branch: id, Kind: KindReport, Key: "2"})
	c3 := h.Publish(Event{Branch: id, Kind: KindReport, Key: "3"})
	if c1 != "fe-g1" || c2 != "fe-g100" || c3 != "fe-g101" {
		t.Fatalf("cursor sequence wrong: %q %q %q", c1, c2, c3)
	}
	if !strings.HasPrefix(c1, "fe-g") {
		t.Fatalf("cursor format wrong: %q", c1)
	}
}

func TestForceResyncDemotesAll(t *testing.T) {
	h := NewHub(Options{})
	a, _, _ := h.Subscribe(branch.ID{}, "")
	b, _, _ := h.Subscribe(mustParse(t, "site=sdsc"), "")
	defer a.Close()
	defer b.Close()
	h.ForceResync()
	if _, resync := a.Drain(); !resync {
		t.Fatalf("subscriber a not demoted")
	}
	if _, resync := b.Drain(); !resync {
		t.Fatalf("subscriber b not demoted")
	}
}

func TestPublishCopiesData(t *testing.T) {
	h := NewHub(Options{})
	sub, _, _ := h.Subscribe(branch.ID{}, "")
	defer sub.Close()
	buf := []byte("original")
	h.Publish(Event{Branch: mustParse(t, "host=a.example.org,site=sdsc"), Kind: KindReport, Data: buf})
	copy(buf, "SCRIBBLE")
	ev, _ := drainWait(t, sub, time.Second)
	if string(ev[0].Data) != "original" {
		t.Fatalf("publish shared the caller's buffer: %q", ev[0].Data)
	}
}

// TestPublishRendersOnDemand: a Render event costs nothing while nobody
// wants it, and one rendering, shared, however many do.
func TestPublishRendersOnDemand(t *testing.T) {
	h := NewHub(Options{})
	res := mustParse(t, "host=a.example.org,site=sdsc")
	renders := 0
	event := Event{Branch: res, Kind: KindReport, Render: func() []byte {
		renders++
		return []byte("rendered")
	}}

	h.Publish(event)
	other, _, _ := h.Subscribe(mustParse(t, "site=ncsa"), "")
	defer other.Close()
	h.Publish(event)
	if renders != 0 {
		t.Fatalf("rendered %d times with no subscriber wanting the event", renders)
	}

	subA, _, _ := h.Subscribe(mustParse(t, "site=sdsc"), "")
	defer subA.Close()
	subB, _, _ := h.Subscribe(branch.ID{}, "")
	defer subB.Close()
	h.Publish(event)
	if renders != 1 {
		t.Fatalf("rendered %d times for two subscribers, want 1", renders)
	}
	evA, _ := drainWait(t, subA, time.Second)
	evB, _ := drainWait(t, subB, time.Second)
	if string(evA[0].Data) != "rendered" || &evA[0].Data[0] != &evB[0].Data[0] {
		t.Fatalf("subscribers got %q and %q, want one shared rendering", evA[0].Data, evB[0].Data)
	}
	if ev, _ := other.Drain(); len(ev) != 0 {
		t.Fatalf("non-matching subscriber got %d events", len(ev))
	}
}

func TestHubCloseEndsSubscribers(t *testing.T) {
	h := NewHub(Options{})
	sub, _, _ := h.Subscribe(branch.ID{}, "")
	h.Close()
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatalf("Done not closed on hub close")
	}
	// Publishing after close is a quiet no-op.
	h.Publish(Event{Branch: mustParse(t, "host=a.example.org,site=sdsc"), Kind: KindReport})
	// Subscribing after close yields an already-done subscriber.
	s2, _, _ := h.Subscribe(branch.ID{}, "")
	select {
	case <-s2.Done():
	default:
		t.Fatalf("post-close subscriber should be done")
	}
}

// TestConcurrentPublishSubscribe hammers subscribe/unsubscribe/publish
// from many goroutines under -race, and checks every subscriber that
// stays attached observes strictly increasing stamps with no duplicates.
func TestConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub(Options{QueueLimit: 64})
	ids := make([]branch.ID, 8)
	for i := range ids {
		ids[i] = mustParse(t, fmt.Sprintf("host=h%d.example.org,site=sdsc", i))
	}
	var work sync.WaitGroup
	stop := make(chan struct{})

	// Publishers.
	for p := 0; p < 4; p++ {
		work.Add(1)
		go func(p int) {
			defer work.Done()
			for i := 0; i < 500; i++ {
				h.Publish(Event{Branch: ids[(p+i)%len(ids)], Kind: KindReport, Key: fmt.Sprintf("p%d-%d", p, i), Data: []byte("r")})
			}
		}(p)
	}
	// Churning subscribers: attach, drain a little, detach.
	for c := 0; c < 4; c++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for i := 0; i < 50; i++ {
				s, _, _ := h.Subscribe(branch.ID{}, "")
				if _, resync := s.Drain(); resync {
					s.Resync()
				}
				s.Close()
			}
		}()
	}
	// One durable subscriber verifying stamp monotonicity across drains.
	var verifier sync.WaitGroup
	verifier.Add(1)
	go func() {
		defer verifier.Done()
		s, _, _ := h.Subscribe(branch.ID{}, "")
		defer s.Close()
		var last uint64
		for {
			ev, resync := s.Drain()
			if resync {
				s.Resync()
				last = 0 // snapshot supersedes; stamps restart monotonic
				continue
			}
			for _, e := range ev {
				if e.seq <= last {
					t.Errorf("stamp regression: %d after %d", e.seq, last)
					return
				}
				last = e.seq
			}
			select {
			case <-s.Ready():
			case <-stop:
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { work.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("concurrent test wedged")
	}
	close(stop)
	verifier.Wait()
	if n := h.SubscriberCount(); n != 0 {
		t.Fatalf("subscribers leaked: %d", n)
	}
}
