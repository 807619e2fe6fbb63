package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/federation"
	"inca/internal/simtime"
)

// The router's /feed is each subscriber's own fan-in (DESIGN.md §5g): the
// request opens one subscription per shard primary at the subscriber's
// prefix and relays every change a shard sends, its data bytes unchanged,
// under a composed cursor. Cursors are composed as /cache ETags are: the
// router signature followed by each shard's own cursor in ring-member
// order, joined with "." — "f<sig>-<c1>.<c2>...". Part i of a subscriber's
// cursor resumes it on shard i, so a reconnect at a current cursor resumes
// everywhere; a membership change or promotion mints a new signature, so a
// cursor from the old topology resumes nowhere. Subscribers share nothing,
// and a router nobody subscribes to holds no subscription on any shard.

// A fan-in re-dials a shard whose stream ended on the jittered
// simtime.Backoff ladder between these bounds, so the subscribers of a
// restarted shard do not all come back at once.
const (
	feedRedialBase = 250 * time.Millisecond
	feedRedialCap  = 5 * time.Second
)

// feedBacklog is how many shard events a fan-in's readers may parse ahead
// of its writer: a burst that arrives while one batch is written is
// drained into the next Write whole.
const feedBacklog = 64

// fanIn is one subscriber's subscriptions: a stream per shard primary of
// the topology it was opened under, and the newest cursor each has sent.
type fanIn struct {
	f       *Federated
	prefix  branch.ID
	moved   <-chan struct{} // closed at the next membership change or promotion
	sig     string          // the router signature the streams were opened under
	cursors []string        // ring-member order; written by the serving goroutine only
	events  chan shardEvent // every stream's events after its first
	frames  []byte          // one drained batch, framed, for one Write
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// shardEvent is one event a shard's stream sent.
type shardEvent struct {
	shard int
	ev    FeedEvent
}

// openFanIn subscribes to every shard primary at prefix, resuming shard i
// at part i of cursor when cursor was composed under the router's current
// signature, and reads each stream's first event. resumed is true when
// every shard resumed: the subscriber has missed nothing. The streams end
// with ctx or at close.
func (f *Federated) openFanIn(ctx context.Context, prefix branch.ID, cursor string) (fi *fanIn, resumed bool, err error) {
	moved := *f.moved.Load()
	shards, sig := f.router.Shards(), f.router.Signature()
	fi = &fanIn{f: f, prefix: prefix, moved: moved, sig: sig, cursors: make([]string, len(shards)), events: make(chan shardEvent, feedBacklog)}
	ctx, fi.stop = context.WithCancel(ctx)
	parts := decomposeTag(cursor, sig, len(shards))
	streams := make([]*FeedStream, 0, len(shards))
	resumed = true
	for i, s := range shards {
		part := ""
		if parts != nil {
			part = strings.Trim(parts[i], `"`)
		}
		fs, err := f.subscribeShard(ctx, s, prefix, part)
		var first FeedEvent
		if err == nil {
			streams = append(streams, fs)
			if first, err = fs.Next(); err == nil && first.Type != "snapshot" && first.Type != "resume" {
				err = fmt.Errorf("first event %s: %s", first.Type, first.Data)
			}
			if err != nil {
				err = badGateway("shard %s: feed: %v", s.Name(), err)
			}
		}
		if err != nil {
			fi.stop()
			for _, fs := range streams {
				fs.Close()
			}
			return nil, false, err
		}
		fi.cursors[i] = first.Cursor
		resumed = resumed && first.Type == "resume"
	}
	for i, fs := range streams {
		fi.wg.Add(1)
		go fi.read(ctx, i, shards[i], fs, fi.cursors[i])
	}
	return fi, resumed, nil
}

// subscribeShard opens shard s's /feed at prefix from cursor. A shard
// with no /feed is a 503, so the consumer falls back to polling as it
// would against a depot without one.
func (f *Federated) subscribeShard(ctx context.Context, s federation.Shard, prefix branch.ID, cursor string) (*FeedStream, error) {
	base := s.BaseURL()
	if base == "" {
		return nil, httpError{http.StatusServiceUnavailable, "shard " + s.Name() + " has no querying interface"}
	}
	fs, err := (&Client{Base: base, HTTP: f.feedHTTP}).feedSubscribe(ctx, prefix.String(), cursor, "")
	switch {
	case errors.Is(err, ErrFeedUnsupported):
		return nil, httpError{http.StatusServiceUnavailable, "shard " + s.Name() + " does not serve /feed"}
	case err != nil:
		return nil, badGateway("shard %s: feed: %v", s.Name(), err)
	}
	return fs, nil
}

// read passes shard i's events to fi.events until ctx ends. When the
// stream ends it re-dials at the newest cursor it passed on, so the new
// stream's first event says whether the subscriber missed anything: a
// resume, nothing; a snapshot (the shard restarted, or demoted this
// subscription), something.
func (fi *fanIn) read(ctx context.Context, i int, s federation.Shard, fs *FeedStream, cursor string) {
	defer fi.wg.Done()
	for failures := 0; ; {
		if fs != nil {
			for {
				ev, err := fs.Next()
				if err != nil {
					break
				}
				if ev.Type == "error" {
					// The shard could not render a snapshot and ends the
					// stream: start over from a fresh one.
					cursor = ""
					continue
				}
				cursor, failures = ev.Cursor, 0
				select {
				case fi.events <- shardEvent{i, ev}:
				case <-ctx.Done():
				}
			}
			fs.Close()
		}
		failures++
		t := time.NewTimer(simtime.Backoff(feedRedialBase, feedRedialCap, failures))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		fs, _ = fi.f.subscribeShard(ctx, s, fi.prefix, cursor) // on failure, the next rung retries
	}
}

// close ends every stream and waits for their readers.
func (fi *fanIn) close() {
	fi.stop()
	fi.wg.Wait()
}

// cursor is the composed cursor of the shards' newest.
func (fi *fanIn) cursor() string {
	return strings.Trim(composeTag(fi.sig, fi.cursors), `"`)
}

// drain takes e and every shard event already received after it and
// writes each change as the shard sent it, under the recomposed cursor: in
// one Write, or in pieces of about sseWriteChunk for a larger batch. It
// returns how many changes it wrote, and whether a shard sent a snapshot:
// changes passed the subscriber by, and only a merged snapshot taken after
// the drain holds them.
func (fi *fanIn) drain(w io.Writer, e shardEvent) (changes int, missed bool) {
	for more := true; more; {
		fi.cursors[e.shard] = e.ev.Cursor
		switch e.ev.Type {
		case "change":
			fi.frames = appendSSE(fi.frames, "change", fi.cursor(), e.ev.Data)
			changes++
		case "snapshot":
			missed = true
		}
		select {
		case e = <-fi.events:
		default:
			more = false
		}
		if len(fi.frames) > 0 && (!more || len(fi.frames) >= sseWriteChunk) {
			w.Write(fi.frames)
			fi.frames = fi.frames[:0]
		}
	}
	return changes, missed
}

// snapshot writes the merged snapshot at the composed cursor; false when
// it could not be taken and the stream must end.
func (fi *fanIn) snapshot(ctx context.Context, w io.Writer) bool {
	body, err := fi.f.mergedSnapshot(ctx, fi.prefix)
	if err != nil {
		writeSSE(w, "error", fi.cursor(), []byte(err.Error()))
		return false
	}
	writeSSE(w, "snapshot", fi.cursor(), body)
	return true
}

// feed serves one router /feed subscriber from its own fan-in: resume or
// a merged snapshot, then the shards' changes as they arrive, and a fresh
// merged snapshot whenever a shard says changes passed the subscriber by
// or the topology moves. The agreement status stream is a single depot's.
func (f *Federated) feed(w http.ResponseWriter, r *http.Request, prefix branch.ID, cursor string, status bool) error {
	if status {
		return httpError{http.StatusNotFound, "status stream unavailable on the federated tier; subscribe to a shard"}
	}
	fi, resumed, err := f.openFanIn(r.Context(), prefix, cursor)
	if err != nil {
		return err
	}
	defer func() { fi.close() }()
	f.feedSubscribers.Add(1)
	defer f.feedSubscribers.Add(-1)
	if !startSSE(w, r) {
		return nil
	}
	rc := http.NewResponseController(w)
	if resumed {
		writeSSE(w, "resume", fi.cursor(), nil)
	} else if !fi.snapshot(r.Context(), w) {
		return nil
	}
	rc.Flush()

	ping := time.NewTicker(ssePing)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			return nil
		case <-ping.C:
			io.WriteString(w, ": ping\n\n")
		case <-fi.moved:
			// A new signature: no cursor of the old topology holds, so
			// subscribe afresh to the new one and start over from its
			// merged snapshot.
			fi.close()
			next, _, err := f.openFanIn(r.Context(), prefix, "")
			if err != nil {
				writeSSE(w, "error", "", []byte(err.Error()))
				return nil
			}
			fi = next
			f.feedResyncs.Inc()
			if !fi.snapshot(r.Context(), w) {
				return nil
			}
		case e := <-fi.events:
			changes, missed := fi.drain(w, e)
			f.feedRelayed.Add(uint64(changes))
			if missed {
				f.feedResyncs.Inc()
				if !fi.snapshot(r.Context(), w) {
					return nil
				}
			}
		}
		rc.Flush()
	}
}

// topologyMoved tells every subscriber that the topology moved: their
// composed cursors no longer hold.
func (f *Federated) topologyMoved() {
	ch := make(chan struct{})
	close(*f.moved.Swap(&ch))
}

// mergedSnapshot is the catch-up body for a router feed subscriber: the
// same scatter-and-merge /cache performs, at the moment of the call — at
// least as fresh as the cursors its shards have sent.
func (f *Federated) mergedSnapshot(ctx context.Context, prefix branch.ID) ([]byte, error) {
	shards := f.router.Shards()
	ring := f.router.Ring()
	resps := f.scatter(ctx, shards, "/cache", url.Values{"branch": {prefix.String()}}, nil)
	docs, err := gather(resps, http.StatusNotFound)
	if err != nil || len(docs) == 0 {
		return nil, err
	}
	f.merges.Inc()
	return federation.MergeCache(docs, prefix, ring)
}

// readyProbe bounds the router's wait for a shard's /readyz: a shard that
// is bound but does not answer is named, not waited on.
const readyProbe = time.Second

// ready asks every shard primary's /readyz at once: nil when all answer
// 200, else the first shard in ring order that did not, and why.
func (f *Federated) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, readyProbe)
	defer cancel()
	resps := f.scatter(ctx, f.router.Shards(), "/readyz", nil, nil)
	defer releaseAll(resps)
	_, err := gather(resps, 0)
	return err
}
