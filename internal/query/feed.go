package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/feed"
	"inca/internal/metrics"
)

// FeedOptions configure the server's change feed (DESIGN.md §5h).
type FeedOptions struct {
	// QueueLimit bounds each subscriber's coalesced event queue; a
	// subscriber that falls further behind is demoted to a fresh
	// snapshot. Default 256.
	QueueLimit int
	// Metrics registers the hub instruments (subscribers, published/
	// coalesced/dropped counters, fan-out latency).
	Metrics *metrics.Registry
	// Agreement, when set, turns on the server-side status stream:
	// evaluation runs incrementally on depot changes and red/green
	// deltas are pushed on /feed?stream=status (plus a /summary
	// snapshot endpoint).
	Agreement *agreement.Agreement
	// Reverify is the periodic full re-evaluation interval for the
	// status stream — staleness (MaxAge) advances with wall time, with
	// no depot change to announce it. Default 5m.
	Reverify time.Duration
}

// Feed wires a depot's committed mutations to HTTP subscribers: the
// depot publishes into a fan-out hub, and /feed serves it over SSE or
// long-poll with snapshot catch-up.
type Feed struct {
	d      *depot.Depot
	hub    *feed.Hub
	status *statusFeed // nil unless FeedOptions.Agreement was set
}

// NewFeed attaches a change feed to the depot. Call Close to detach.
func NewFeed(d *depot.Depot, opts FeedOptions) *Feed {
	f := &Feed{d: d}
	f.hub = feed.NewHub(feed.Options{
		QueueLimit:   opts.QueueLimit,
		CursorSource: d.CacheGeneration,
		Name:         "depot",
		Metrics:      opts.Metrics,
	})
	d.SetPublisher(f.publish)
	if opts.Agreement != nil {
		f.status = newStatusFeed(d, opts.Agreement, opts, f.hub)
	}
	return f
}

// Close detaches the feed from the depot and ends every subscriber.
func (f *Feed) Close() {
	f.d.SetPublisher(nil)
	if f.status != nil {
		f.status.stop()
	}
	f.hub.Close()
}

// changeEvent is the wire payload of one change (the SSE "data" body and
// the long-poll event object).
type changeEvent struct {
	Branch string `json:"branch"`
	Kind   string `json:"kind"`
	Report string `json:"report,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// publish is the depot's post-commit hook. It runs on every store, so the
// JSON body is left to the hub to render at the first subscriber that
// wants the event: with nobody listening a commit costs a cursor stamp.
func (f *Feed) publish(c depot.Change) {
	ev := feed.Event{Branch: c.Branch}
	switch c.Kind {
	case depot.ChangeReport:
		ev.Kind = feed.KindReport
	case depot.ChangePolicy:
		ev.Kind = feed.KindPolicy
		// Coalesce per policy, not per prefix: two policies on one
		// prefix are distinct events.
		ev.Key = "policy|" + string(c.Report)
	case depot.ChangeManual:
		ev.Kind = feed.KindManual
		ev.Key = c.Branch.String() + "|" + string(c.Report)
	}
	kind := ev.Kind
	ev.Render = func() []byte {
		ce := changeEvent{Branch: c.Branch.String(), Kind: kind.String()}
		if c.Kind == depot.ChangeReport {
			ce.Report = string(c.Report)
		} else {
			ce.Policy = string(c.Report)
		}
		data, _ := json.Marshal(ce) // strings only: cannot fail
		return data
	}
	f.hub.Publish(ev)
}

// snapshot renders the catch-up body for a change-stream subscriber: the
// cache subtree at its prefix, exactly what GET /cache serves (empty
// when the subtree has no data yet).
func (f *Feed) snapshot(prefix branch.ID) ([]byte, error) {
	sub, ok, err := f.d.Cache().Query(prefix)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return sub, nil
}

// serveFeed is the transport under /feed: subscribe, catch up with a
// snapshot when the presented cursor is not current, then stream coalesced
// events. SSE by default; mode=poll does one long-poll exchange.
func serveFeed(w http.ResponseWriter, r *http.Request, prefix branch.ID, hub *feed.Hub, snap func() ([]byte, error)) {
	cursor := r.URL.Query().Get("cursor")
	if r.URL.Query().Get("mode") == "poll" {
		wait := 30 * time.Second
		if ws := r.URL.Query().Get("wait"); ws != "" {
			if d, err := time.ParseDuration(ws); err == nil && d > 0 && d <= 5*time.Minute {
				wait = d
			}
		}
		serveLongPoll(w, r, prefix, hub, snap, cursor, wait)
		return
	}
	serveSSE(w, r, prefix, hub, snap, cursor)
}

// writeSSE frames one server-sent event; data containing newlines is
// split across data: lines per the SSE spec (clients rejoin with \n).
func writeSSE(w io.Writer, event, id string, data []byte) {
	fmt.Fprintf(w, "event: %s\nid: %s\n", event, id)
	if len(data) == 0 {
		io.WriteString(w, "data:\n")
	} else {
		for _, line := range bytes.Split(data, []byte("\n")) {
			fmt.Fprintf(w, "data: %s\n", line)
		}
	}
	io.WriteString(w, "\n")
}

func sseEventName(k feed.Kind) string {
	if k == feed.KindStatus {
		return "status"
	}
	return "change"
}

func serveSSE(w http.ResponseWriter, r *http.Request, prefix branch.ID, hub *feed.Hub, snap func() ([]byte, error), cursor string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub, needSnapshot, current := hub.Subscribe(prefix, cursor)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return
	}
	if needSnapshot {
		body, err := snap()
		if err != nil {
			writeSSE(w, "error", current, []byte(err.Error()))
			return
		}
		writeSSE(w, "snapshot", current, body)
	} else {
		// The subscriber is current: confirm its cursor so it can
		// persist it even if nothing ever changes.
		writeSSE(w, "resume", current, nil)
	}
	flusher.Flush()

	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.Done():
			return
		case <-ping.C:
			io.WriteString(w, ": ping\n\n")
			flusher.Flush()
		case <-sub.Ready():
			for {
				events, resync := sub.Drain()
				if resync {
					// Demoted: replace the subscriber's world with a
					// fresh snapshot at the newest cursor and go on
					// streaming (ISSUE's snapshot-then-resubscribe,
					// without paying a reconnect).
					cur := sub.Resync()
					body, err := snap()
					if err != nil {
						writeSSE(w, "error", cur, []byte(err.Error()))
						return
					}
					writeSSE(w, "snapshot", cur, body)
					continue
				}
				if len(events) == 0 {
					break
				}
				for _, e := range events {
					writeSSE(w, sseEventName(e.Kind), e.Cursor, e.Data)
				}
			}
			flusher.Flush()
		}
	}
}

// pollEvent is one event in a long-poll response body.
type pollEvent struct {
	Cursor string          `json:"cursor"`
	Kind   string          `json:"kind"`
	Event  json.RawMessage `json:"event"`
}

// pollResponse is the long-poll body: either a snapshot at a cursor, or
// a batch of events ending at a cursor.
type pollResponse struct {
	Cursor   string      `json:"cursor"`
	Snapshot *string     `json:"snapshot,omitempty"`
	Events   []pollEvent `json:"events,omitempty"`
}

func writePollJSON(w http.ResponseWriter, resp pollResponse) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(resp)
}

func serveLongPoll(w http.ResponseWriter, r *http.Request, prefix branch.ID, hub *feed.Hub, snap func() ([]byte, error), cursor string, wait time.Duration) {
	sub, needSnapshot, current := hub.Subscribe(prefix, cursor)
	defer sub.Close()
	sendSnapshot := func(cur string) {
		body, err := snap()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s := string(body)
		writePollJSON(w, pollResponse{Cursor: cur, Snapshot: &s})
	}
	if needSnapshot {
		sendSnapshot(current)
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		events, resync := sub.Drain()
		if resync {
			sendSnapshot(sub.Resync())
			return
		}
		if len(events) > 0 {
			resp := pollResponse{Cursor: events[len(events)-1].Cursor}
			for _, e := range events {
				resp.Events = append(resp.Events, pollEvent{Cursor: e.Cursor, Kind: e.Kind.String(), Event: json.RawMessage(e.Data)})
			}
			writePollJSON(w, resp)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.Done():
			w.WriteHeader(http.StatusNoContent)
			return
		case <-timer.C:
			// Nothing changed within the window: the caller's cursor is
			// still current.
			w.WriteHeader(http.StatusNoContent)
			return
		case <-sub.Ready():
		}
	}
}

// statusFeed runs agreement evaluation server-side: a subscriber on the
// depot hub feeds changed branches into the incremental evaluator, and
// the resulting red/green deltas are published on a second hub.
type statusFeed struct {
	hub   *feed.Hub
	cache depot.Cache

	mu  sync.Mutex // guards inc
	inc *agreement.Incremental

	stopCh chan struct{}
	doneCh chan struct{}
}

func newStatusFeed(d *depot.Depot, ag *agreement.Agreement, opts FeedOptions, src *feed.Hub) *statusFeed {
	reverify := opts.Reverify
	if reverify <= 0 {
		reverify = 5 * time.Minute
	}
	sf := &statusFeed{
		hub: feed.NewHub(feed.Options{
			QueueLimit: opts.QueueLimit,
			Name:       "status",
			Metrics:    opts.Metrics,
		}),
		cache:  d.Cache(),
		inc:    agreement.NewIncremental(ag),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go sf.run(src, reverify)
	return sf
}

func (sf *statusFeed) stop() {
	close(sf.stopCh)
	<-sf.doneCh
	sf.hub.Close()
}

func (sf *statusFeed) run(src *feed.Hub, reverify time.Duration) {
	defer close(sf.doneCh)
	sub, _, _ := src.Subscribe(branch.ID{}, "")
	defer sub.Close()
	sf.full()
	tick := time.NewTicker(reverify)
	defer tick.Stop()
	for {
		select {
		case <-sf.stopCh:
			return
		case <-sub.Done():
			return
		case <-tick.C:
			sf.full()
		case <-sub.Ready():
			events, resync := sub.Drain()
			if resync {
				sub.Resync()
				sf.full()
				continue
			}
			var changed []branch.ID
			for _, e := range events {
				// Policy and manual-archive changes do not alter cached
				// reports, so they cannot move the agreement outcome.
				if e.Kind == feed.KindReport {
					changed = append(changed, e.Branch)
				}
			}
			if len(changed) > 0 {
				sf.update(changed)
			}
		}
	}
}

func (sf *statusFeed) full() {
	sf.mu.Lock()
	_, deltas, err := sf.inc.Full(sf.cache, time.Now())
	sf.mu.Unlock()
	if err == nil {
		sf.publishDeltas(deltas)
	}
}

func (sf *statusFeed) update(changed []branch.ID) {
	sf.mu.Lock()
	deltas, err := sf.inc.Update(sf.cache, changed, time.Now())
	sf.mu.Unlock()
	if err != nil {
		// The incremental path failed (cache read error): resynchronize
		// with a full sweep rather than drift.
		sf.full()
		return
	}
	sf.publishDeltas(deltas)
}

func (sf *statusFeed) publishDeltas(deltas []agreement.Delta) {
	for _, d := range deltas {
		row, err := json.Marshal(statusRowOf(d.Resource, d.Status))
		if err != nil {
			continue
		}
		sf.hub.Publish(feed.Event{Kind: feed.KindStatus, Key: "res|" + d.Resource, Data: row})
	}
}

// statusCellJSON is one category cell of a Figure 4 row.
type statusCellJSON struct {
	Category   string  `json:"category"`
	Pass       int     `json:"pass"`
	Fail       int     `json:"fail"`
	Percent    float64 `json:"pct"`
	Applicable bool    `json:"applicable"`
}

// statusFailureJSON is one expanded red-cell explanation.
type statusFailureJSON struct {
	Category string `json:"category"`
	Test     string `json:"test"`
	Detail   string `json:"detail"`
}

// statusRowJSON is one resource's row: the unit of both the snapshot and
// the delta stream (apply latest-wins by resource).
type statusRowJSON struct {
	Resource string              `json:"resource"`
	Site     string              `json:"site,omitempty"`
	Removed  bool                `json:"removed,omitempty"`
	Cells    []statusCellJSON    `json:"cells,omitempty"`
	Total    *statusCellJSON     `json:"total,omitempty"`
	Failures []statusFailureJSON `json:"failures,omitempty"`
}

func cellOf(c agreement.CategorySummary) statusCellJSON {
	return statusCellJSON{
		Category:   string(c.Category),
		Pass:       c.Pass,
		Fail:       c.Fail,
		Percent:    c.Percent(),
		Applicable: c.Applicable(),
	}
}

func statusRowOf(resource string, rs *agreement.ResourceStatus) statusRowJSON {
	if rs == nil {
		return statusRowJSON{Resource: resource, Removed: true}
	}
	row := statusRowJSON{Resource: rs.Resource, Site: rs.Site}
	for _, c := range rs.Summary() {
		row.Cells = append(row.Cells, cellOf(c))
	}
	total := cellOf(rs.Total())
	row.Total = &total
	for _, f := range rs.Failures() {
		row.Failures = append(row.Failures, statusFailureJSON{
			Category: string(f.Category), Test: f.Test, Detail: f.Detail,
		})
	}
	return row
}

// statusPageJSON is the status snapshot body.
type statusPageJSON struct {
	Agreement string          `json:"agreement"`
	At        time.Time       `json:"at"`
	Resources []statusRowJSON `json:"resources"`
}

func (sf *statusFeed) snapshot() ([]byte, error) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	st := sf.inc.Status()
	page := statusPageJSON{Agreement: st.Agreement.Name, At: st.At, Resources: []statusRowJSON{}}
	for _, rs := range st.Resources {
		page.Resources = append(page.Resources, statusRowOf(rs.Resource, rs))
	}
	return json.Marshal(page)
}
