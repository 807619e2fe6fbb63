// Package feed is the depot change feed's fan-out hub (DESIGN.md §5g):
// branch-keyed pub/sub with bounded per-subscriber queues, latest-wins
// coalescing, and backpressure that demotes slow subscribers to a
// snapshot-then-resubscribe cycle instead of buffering unboundedly.
//
// Cursor model: the hub stamps every published event with a strictly
// increasing sequence rendered as "f<epoch>-g<stamp>". The stamp is seeded
// from the depot's cache generation (CursorSource) and advanced under the
// publish mutex as max(generation, last+1), so stamps are unique and
// ordered even when concurrent commits observe the same generation (the
// sharded cache's generation is a sum of shard counters, not a commit
// log). A reconnecting subscriber presents its last cursor; the hub
// compares it to the newest cursor by string equality — equal means the
// subscriber is current and resumes live, anything else means catch-up,
// which is simply a conditional snapshot read (no replay log, no new
// durability machinery). The epoch is unique per hub lifetime so cursors
// from a previous process never false-match.
package feed

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/metrics"
)

// Kind classifies a change event.
type Kind uint8

const (
	// KindReport is a report stored into the depot cache.
	KindReport Kind = iota
	// KindPolicy is an archival-policy upload.
	KindPolicy
	// KindManual is a manual archive update (derived metrics).
	KindManual
	// KindStatus is an agreement red/green delta (status stream).
	KindStatus
)

// String names the kind for wire payloads.
func (k Kind) String() string {
	switch k {
	case KindReport:
		return "report"
	case KindPolicy:
		return "policy"
	case KindManual:
		return "manual"
	case KindStatus:
		return "status"
	}
	return "unknown"
}

// Event is one published change. Data is shared by every subscriber and
// must be treated as read-only.
type Event struct {
	Branch branch.ID
	Kind   Kind
	// Key is the coalescing identity within a kind; empty means the
	// branch identifier. Two queued events with the same (kind, key)
	// coalesce latest-wins.
	Key string
	// Data is the event payload: the report body for KindReport, the
	// policy name for KindPolicy/KindManual, a status-delta JSON
	// document for KindStatus.
	Data []byte
	// Render, when set, produces the shared payload from the event as
	// published, Data still the publisher's buffer: the hub calls it at
	// most once, under its lock, and only if some subscriber wants the
	// event — a publisher nobody listens to never pays for the payload.
	Render func(Event) []byte
	// Cursor is the event's position in the stream. Publish assigns it
	// when some subscriber wants the event; PublishExternal requires the
	// caller to (federated composition).
	Cursor string

	seq uint64
	at  time.Time
}

// Options configure a Hub.
type Options struct {
	// QueueLimit bounds each subscriber's queue (coalesced entries).
	// Exceeding it demotes the subscriber to snapshot-then-resubscribe.
	// Default 256.
	QueueLimit int
	// CursorSource seeds and floors the stamp sequence — the depot's
	// cache generation, so cursors advance at least as fast as the
	// ETag validator. Nil means a pure counter.
	CursorSource func() uint64
	// Epoch distinguishes this hub's cursors from any other lifetime's.
	// Default: hex of the creation time in nanoseconds.
	Epoch string
	// Name labels this hub's metrics (label "feed").
	Name string
	// Metrics registers the hub's instruments; nil keeps them private.
	Metrics *metrics.Registry
}

// Hub fans events out to subscribers.
type Hub struct {
	mu   sync.Mutex
	last uint64
	// lastCursor is the newest cursor. While stale it is render(last),
	// rendered only when something reads it.
	lastCursor string
	stale      bool
	epoch      string
	queueLimit int
	source     func() uint64
	subs       map[*Subscriber]struct{}
	closed     bool

	published *metrics.Counter
	coalesced *metrics.Counter
	dropped   *metrics.Counter
	resyncs   *metrics.Counter
	fanoutH   *metrics.Histogram
}

// NewHub creates a hub. The initial cursor is stamped from CursorSource
// so a subscriber connecting before any publish still gets a comparable
// position.
func NewHub(opts Options) *Hub {
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 256
	}
	if opts.Epoch == "" {
		opts.Epoch = strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	if opts.Name == "" {
		opts.Name = "depot"
	}
	h := &Hub{
		epoch:      opts.Epoch,
		queueLimit: opts.QueueLimit,
		source:     opts.CursorSource,
		subs:       make(map[*Subscriber]struct{}),
		stale:      true,
	}
	if h.source != nil {
		h.last = h.source()
	}
	reg := opts.Metrics
	h.published = reg.Counter("inca_feed_events_published_total", "Events published into the feed hub.", "feed", opts.Name)
	h.coalesced = reg.Counter("inca_feed_events_coalesced_total", "Queued events superseded by a newer event for the same key.", "feed", opts.Name)
	h.dropped = reg.Counter("inca_feed_events_dropped_total", "Events dropped by slow-subscriber queue overflow.", "feed", opts.Name)
	h.resyncs = reg.Counter("inca_feed_resyncs_total", "Subscribers demoted to snapshot-then-resubscribe.", "feed", opts.Name)
	h.fanoutH = reg.Histogram("inca_feed_fanout_seconds", "Latency from publish to subscriber drain.", nil, "feed", opts.Name)
	reg.GaugeFunc("inca_feed_subscribers", "Currently attached feed subscribers.", func() float64 {
		return float64(h.SubscriberCount())
	}, "feed", opts.Name)
	return h
}

func (h *Hub) render(stamp uint64) string {
	return "f" + h.epoch + "-g" + strconv.FormatUint(stamp, 10)
}

// cursorLocked returns the newest cursor, rendering it if a Publish
// advanced the stamp since it was last read; callers hold h.mu.
func (h *Hub) cursorLocked() string {
	if h.stale {
		h.lastCursor, h.stale = h.render(h.last), false
	}
	return h.lastCursor
}

// Publish stamps the event with the next cursor and offers it to every
// matching subscriber. Data is copied (or rendered) once, shared read-only,
// when anyone is listening, so callers may reuse their buffer after Publish
// returns. With nobody listening it only advances the stamp: no
// allocation, no clock read.
func (h *Hub) Publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	stamp := h.last + 1
	if h.source != nil {
		if g := h.source(); g > stamp {
			stamp = g
		}
	}
	h.last, h.stale = stamp, true
	e.seq = stamp
	h.offerLocked(e, false)
}

// PublishExternal publishes an event whose cursor is owned by the caller
// (the federated tier composes per-shard cursors). Ordering within the
// hub still follows publish order. The hub takes ownership of e.Data: it is
// shared with subscribers as it is, so the caller must not touch it again.
func (h *Hub) PublishExternal(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.last++
	e.seq = h.last
	h.lastCursor, h.stale = e.Cursor, false
	h.offerLocked(e, true)
}

// SetCursor records a new current cursor without an event (federated
// snapshot resync: subscribers are force-resynced separately).
func (h *Hub) SetCursor(c string) {
	h.mu.Lock()
	h.lastCursor, h.stale = c, false
	h.mu.Unlock()
}

// offerLocked queues e for every subscriber that wants it. The payload,
// the cursor, the coalescing key and the publish time are settled once, at
// the first such subscriber, and shared by the rest; external says e came
// from PublishExternal: its Data is the hub's to share and its Cursor set.
func (h *Hub) offerLocked(e Event, external bool) {
	h.published.Inc()
	key := "" // set with the payload, at the first subscriber that wants e
	for s := range h.subs {
		if !s.wants(e) {
			continue
		}
		if key == "" {
			e.at = time.Now()
			if e.Render != nil {
				e.Data, e.Render = e.Render(e), nil
			} else if !external && e.Data != nil {
				e.Data = append([]byte(nil), e.Data...)
			}
			if !external {
				e.Cursor = h.cursorLocked() // e is the newest event
			}
			key = coalesceKey(e)
		}
		s.offer(e, key, h)
	}
}

// wants reports whether the event matches the subscriber's branch filter.
// Policy uploads reshape archival behavior for a whole prefix the
// subscriber cannot see from its own subtree, so they go to everyone.
func (s *Subscriber) wants(e Event) bool {
	if e.Kind == KindPolicy {
		return true
	}
	return e.Branch.HasSuffix(s.prefix)
}

// Subscribe registers a subscriber for the branch subtree under prefix.
// The needSnapshot decision is atomic with registration: events published
// after Subscribe returns are queued, so "snapshot at cursor, then apply
// the queue" converges with no missed window. cursor is the client's
// resume position ("" for a fresh subscriber); current is the hub's
// newest cursor, which the snapshot must be served at.
func (h *Hub) Subscribe(prefix branch.ID, cursor string) (sub *Subscriber, needSnapshot bool, current string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub = &Subscriber{
		hub:    h,
		prefix: prefix,
		index:  make(map[string]int),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	current = h.cursorLocked()
	if h.closed {
		close(sub.done)
		sub.closed = true
		return sub, false, current
	}
	h.subs[sub] = struct{}{}
	return sub, cursor != current, current
}

// LastCursor returns the hub's newest cursor.
func (h *Hub) LastCursor() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cursorLocked()
}

// SubscriberCount returns the number of attached subscribers.
func (h *Hub) SubscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// ForceResync demotes every subscriber to snapshot-then-resubscribe
// (federated membership change: composed cursors are no longer
// comparable).
func (h *Hub) ForceResync() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		s.forceResync(h)
	}
}

// Close detaches every subscriber and refuses further publishes.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			close(s.done)
		}
		s.mu.Unlock()
	}
	h.subs = make(map[*Subscriber]struct{})
}

// Subscriber is one attached consumer. Lock order: Hub.mu before
// Subscriber.mu.
type Subscriber struct {
	hub    *Hub
	prefix branch.ID

	mu         sync.Mutex
	queue      []Event
	index      map[string]int // (kind|key) -> queue position
	overflowed bool
	closed     bool
	wake       chan struct{}
	done       chan struct{}
}

func coalesceKey(e Event) string {
	key := e.Key
	if key == "" {
		key = e.Branch.String()
	}
	return string('0'+byte(e.Kind)) + key
}

// offer appends or coalesces one event under its coalesceKey; called with
// Hub.mu held.
func (s *Subscriber) offer(e Event, key string, h *Hub) {
	s.mu.Lock()
	if s.closed || s.overflowed {
		// A demoted subscriber re-snapshots at a newer cursor; queueing
		// more events before it does would only be superseded.
		if s.overflowed && !s.closed {
			h.dropped.Inc()
		}
		s.mu.Unlock()
		return
	}
	if i, ok := s.index[key]; ok {
		s.queue[i] = e
		h.coalesced.Inc()
		s.mu.Unlock()
		s.notify()
		return
	}
	if len(s.queue) >= h.queueLimit {
		// Overflow: drop the whole queue and demote to snapshot — the
		// snapshot at the hub's newest cursor supersedes every queued
		// event, so nothing is lost, only batched.
		h.dropped.Add(uint64(len(s.queue)) + 1)
		h.resyncs.Inc()
		s.queue = nil
		clear(s.index)
		s.overflowed = true
		s.mu.Unlock()
		s.notify()
		return
	}
	s.queue = append(s.queue, e)
	s.index[key] = len(s.queue) - 1
	s.mu.Unlock()
	s.notify()
}

func (s *Subscriber) forceResync(h *Hub) {
	s.mu.Lock()
	if !s.closed && !s.overflowed {
		h.resyncs.Inc()
		s.queue = nil
		clear(s.index)
		s.overflowed = true
	}
	s.mu.Unlock()
	s.notify()
}

func (s *Subscriber) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Ready is signaled (coalesced) whenever the subscriber has events or was
// demoted. Pair with Drain in a select loop.
func (s *Subscriber) Ready() <-chan struct{} { return s.wake }

// Done is closed when the subscriber or its hub closes.
func (s *Subscriber) Done() <-chan struct{} { return s.done }

// Drain returns the queued events in stamp order and whether the
// subscriber has been demoted (resync true ⇒ no events; call Resync, send
// a fresh snapshot at the returned cursor, and continue). Coalescing
// replaces an event in place with a newer stamp, so the drain sorts by
// stamp to restore monotonic cursor order on the wire.
func (s *Subscriber) Drain() (events []Event, resync bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.overflowed {
		return nil, true
	}
	if len(s.queue) == 0 {
		return nil, false
	}
	events = s.queue
	s.queue = nil
	clear(s.index)
	slices.SortFunc(events, func(a, b Event) int { return cmp.Compare(a.seq, b.seq) })
	now := time.Now()
	for i := range events {
		s.hub.fanoutH.Observe(now.Sub(events[i].at).Seconds())
	}
	return events, false
}

// Resync acknowledges a demotion: clears the overflow flag so events
// queue again, and returns the hub's newest cursor — the position the
// caller must snapshot at. The flag clear and cursor read are atomic
// under the hub mutex, so events published after Resync are queued and
// re-applied on top of the snapshot (latest-wins makes that idempotent).
func (s *Subscriber) Resync() string {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.mu.Lock()
	s.overflowed = false
	s.queue = nil
	clear(s.index)
	s.mu.Unlock()
	return s.hub.cursorLocked()
}

// Close detaches the subscriber.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
}
