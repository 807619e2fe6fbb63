package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/federation"
	"inca/internal/feed"
	"inca/internal/simtime"
)

// FederatedFeed composes the shards' change feeds into one stream on the
// federated tier: a watcher per shard subscribes to that shard's /feed
// and republishes its events into a local fan-out hub, so a consumer
// subscribes once and observes every shard's changes merged. Cursors are
// composed the same way /cache ETags are (PR 6): the ring signature
// followed by each shard's own cursor in ring-member order, joined with
// "." — "f<ringSig>-<c1>.<c2>...". A membership change mints a new
// signature, so a composed cursor from the old topology never
// revalidates: every subscriber is demoted to a fresh merged snapshot.
type FederatedFeed struct {
	fed *Federated
	hub *feed.Hub

	mu          sync.Mutex
	sig         string   // ring signature the watchers were wired under
	cursors     []string // latest per-shard cursor, ring-member order
	unsupported []string // shard names whose /feed is missing
	stopCh      chan struct{}
	closed      bool
	wg          sync.WaitGroup
}

// AttachFeed composes the shards' change feeds and mounts them on the
// tier's /feed. Call before Handler; Close the returned feed to detach.
// QueueLimit and Metrics apply to the local hub; Agreement is ignored
// (the status stream is a single-depot feature — subscribe to a shard).
func (f *Federated) AttachFeed(opts FeedOptions) *FederatedFeed {
	ff := &FederatedFeed{fed: f}
	ff.hub = feed.NewHub(feed.Options{
		QueueLimit: opts.QueueLimit,
		Name:       "federated",
		Metrics:    opts.Metrics,
	})
	f.ff = ff
	ff.rewire()
	return ff
}

// Close stops every shard watcher and ends every subscriber.
func (ff *FederatedFeed) Close() {
	ff.mu.Lock()
	if ff.closed {
		ff.mu.Unlock()
		return
	}
	ff.closed = true
	if ff.stopCh != nil {
		close(ff.stopCh)
	}
	ff.mu.Unlock()
	ff.wg.Wait()
	ff.hub.Close()
}

// composeLocked renders the composed cursor from the per-shard cursors,
// as composeTag does a validator: a shard that has not reported a position
// yet contributes "-", which never matches a real cursor.
func (ff *FederatedFeed) composeLocked() string {
	return strings.Trim(composeTag(ff.sig, ff.cursors), `"`)
}

// rewire tears down the watchers and restarts them against the current
// ring. Called at attach time and after every membership change: the
// composed cursor space changes with the signature, so subscribers are
// force-resynced to a merged snapshot under the new topology.
func (ff *FederatedFeed) rewire() {
	ff.mu.Lock()
	if ff.closed {
		ff.mu.Unlock()
		return
	}
	// The router's composed signature (ring + replica epoch): a promotion
	// keeps the ring but moves the shard's feed to a different process, so
	// it must mint a new cursor space and force a resync just as a
	// membership change does.
	sig := ff.fed.router.Signature()
	if sig == ff.sig && ff.stopCh != nil {
		ff.mu.Unlock()
		return
	}
	if ff.stopCh != nil {
		close(ff.stopCh)
	}
	stop := make(chan struct{})
	shards := ff.fed.router.Shards()
	ff.stopCh = stop
	ff.sig = sig
	ff.cursors = make([]string, len(shards))
	ff.unsupported = nil
	composed := ff.composeLocked()
	ff.mu.Unlock()

	ff.hub.SetCursor(composed)
	ff.hub.ForceResync()
	for i, s := range shards {
		ff.wg.Add(1)
		go ff.watch(i, s, sig, stop)
	}
}

// setCursor records shard i's newest cursor and returns the resulting
// composed cursor. ok is false when the watcher's generation is stale
// (the ring changed under it) — the watcher must exit.
func (ff *FederatedFeed) setCursor(gen string, i int, c string) (composed string, ok bool) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.sig != gen || ff.closed {
		return "", false
	}
	ff.cursors[i] = c
	return ff.composeLocked(), true
}

func (ff *FederatedFeed) setUnsupported(gen string, name string, v bool) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.sig != gen || ff.closed {
		return
	}
	for i, n := range ff.unsupported {
		if n == name {
			if !v {
				ff.unsupported = append(ff.unsupported[:i], ff.unsupported[i+1:]...)
			}
			return
		}
	}
	if v {
		ff.unsupported = append(ff.unsupported, name)
	}
}

// unsupportedShard names a shard whose /feed is missing ("" when all
// shards stream). The tier refuses subscriptions then: serving a merged
// feed that silently omits one shard's changes would defeat the cursor
// contract.
func (ff *FederatedFeed) unsupportedShard() string {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if len(ff.unsupported) == 0 {
		return ""
	}
	return ff.unsupported[0]
}

// A watcher re-dials a shard it cannot subscribe to on the jittered
// simtime.Backoff ladder between these bounds, so the watchers of a
// restarted shard do not all come back at once.
const (
	watchBackoffBase = 250 * time.Millisecond
	watchBackoffCap  = 5 * time.Second
)

func sleepOrStop(stop chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// watch is one shard's upstream subscription loop: subscribe at the last
// known cursor, republish changes with composed cursors, reconnect with
// backoff on transport errors. An upstream snapshot after we have been
// live means the shard demoted us (or restarted — new epoch): our own
// subscribers have a gap, so they are demoted to a merged snapshot too.
func (ff *FederatedFeed) watch(i int, s federation.Shard, gen string, stop chan struct{}) {
	defer ff.wg.Done()
	base := s.BaseURL()
	if base == "" {
		ff.setUnsupported(gen, s.Name(), true)
		return
	}
	// The tier's scatter client carries a per-request timeout, which
	// would sever a healthy stream; the watcher uses the default
	// transport instead.
	c := NewClient(base)
	cursor := ""
	live := false
	failures := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		fs, err := c.FeedSubscribe("", cursor, "")
		if err != nil {
			if errors.Is(err, ErrFeedUnsupported) {
				ff.setUnsupported(gen, s.Name(), true)
			}
			failures++
			if !sleepOrStop(stop, simtime.Backoff(watchBackoffBase, watchBackoffCap, failures)) {
				return
			}
			continue
		}
		ff.setUnsupported(gen, s.Name(), false)
		connDone := make(chan struct{})
		go func() {
			select {
			case <-stop:
				fs.Close()
			case <-connDone:
			}
		}()
		stale := ff.relay(i, gen, fs, &cursor, &live)
		close(connDone)
		fs.Close()
		if stale {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		failures = 0
	}
}

// relay pumps one upstream connection into the local hub; returns true
// when the watcher's generation went stale and the loop must exit.
func (ff *FederatedFeed) relay(i int, gen string, fs *FeedStream, cursor *string, live *bool) bool {
	for {
		ev, err := fs.Next()
		if err != nil {
			return false
		}
		switch ev.Type {
		case "snapshot":
			*cursor = ev.Cursor
			composed, ok := ff.setCursor(gen, i, ev.Cursor)
			if !ok {
				return true
			}
			ff.hub.SetCursor(composed)
			if *live {
				// The shard handed us a snapshot we cannot forward (our
				// subscribers hold different prefixes): demote them all
				// to a merged snapshot at the new composed cursor.
				ff.hub.ForceResync()
			}
			*live = true
		case "resume":
			*cursor = ev.Cursor
			if composed, ok := ff.setCursor(gen, i, ev.Cursor); !ok {
				return true
			} else if !*live {
				ff.hub.SetCursor(composed)
			}
			*live = true
		case "change":
			*cursor = ev.Cursor
			composed, ok := ff.setCursor(gen, i, ev.Cursor)
			if !ok {
				return true
			}
			fe, err := upstreamEvent(ev)
			if err != nil {
				continue
			}
			fe.Cursor = composed
			ff.hub.PublishExternal(fe)
		case "error":
			// Shard-side snapshot failure; reconnect from scratch.
			*cursor = ""
			return false
		}
	}
}

// upstreamEvent rebuilds the hub event from a shard's wire change,
// preserving the coalescing identity Feed.publish assigned. It decodes
// only the routing fields: the report, most of the body, is forwarded in
// Data as received and never unquoted here.
func upstreamEvent(ev FeedEvent) (feed.Event, error) {
	var fc struct {
		Branch string `json:"branch"`
		Kind   string `json:"kind"`
		Policy string `json:"policy"`
	}
	if err := json.Unmarshal(ev.Data, &fc); err != nil {
		return feed.Event{}, fmt.Errorf("query: bad change event: %w", err)
	}
	id, err := branch.Parse(fc.Branch)
	if err != nil {
		return feed.Event{}, err
	}
	fe := feed.Event{Branch: id, Data: append([]byte(nil), ev.Data...)}
	switch fc.Kind {
	case "report":
		fe.Kind = feed.KindReport
	case "policy":
		fe.Kind = feed.KindPolicy
		fe.Key = "policy|" + fc.Policy
	case "manual":
		fe.Kind = feed.KindManual
		fe.Key = fc.Branch + "|" + fc.Policy
	default:
		return feed.Event{}, fmt.Errorf("query: unknown change kind %q", fc.Kind)
	}
	return fe, nil
}

// mergedSnapshot is the catch-up body for a federated feed subscriber:
// the same scatter-and-merge /cache performs, at the moment of the call
// — at least as fresh as any composed cursor the hub has minted.
func (f *Federated) mergedSnapshot(prefix branch.ID) ([]byte, error) {
	shards := f.router.Shards()
	ring := f.router.Ring()
	resps := f.scatter(shards, "/cache", url.Values{"branch": {prefix.String()}}, nil, false)
	docs, err := gather(resps, http.StatusNotFound)
	if err != nil || len(docs) == 0 {
		return nil, err
	}
	f.merges.Inc()
	return federation.MergeCache(docs, prefix, ring)
}

// feed is the composed hub and the merged-cache snapshot. While a shard
// does not stream, no subscription is taken (unsupportedShard says why);
// the agreement status stream is a single depot's.
func (f *Federated) feed(status bool) (*feed.Hub, func(branch.ID) ([]byte, error), error) {
	switch {
	case f.ff == nil:
		return nil, nil, httpError{http.StatusNotFound, "feed disabled"}
	case status:
		return nil, nil, httpError{http.StatusNotFound, "status stream unavailable on the federated tier; subscribe to a shard"}
	}
	if name := f.ff.unsupportedShard(); name != "" {
		return nil, nil, httpError{http.StatusServiceUnavailable, "shard " + name + " does not serve /feed"}
	}
	return f.ff.hub, f.mergedSnapshot, nil
}
