package query

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
	"unicode/utf8"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/feed"
	"inca/internal/metrics"
)

// FeedOptions configure the server's change feed (DESIGN.md §5g).
type FeedOptions struct {
	// Metrics registers the hub instruments (subscribers, published/
	// coalesced/dropped counters, fan-out latency).
	Metrics *metrics.Registry
	// Agreement, when set, turns on the server-side status stream:
	// evaluation runs incrementally on depot changes and red/green
	// deltas are pushed on /feed?stream=status (plus a /summary
	// snapshot endpoint).
	Agreement *agreement.Agreement
}

// reverifyEvery is the status stream's periodic full re-evaluation:
// staleness (MaxAge) advances with wall time, with no depot change to
// announce it.
const reverifyEvery = 5 * time.Minute

// Feed wires a depot's committed mutations to HTTP subscribers: the
// depot publishes into a fan-out hub, and /feed serves it over SSE with
// snapshot catch-up.
type Feed struct {
	d      *depot.Depot
	hub    *feed.Hub
	status *statusFeed // nil unless FeedOptions.Agreement was set
}

// NewFeed attaches a change feed to the depot. Call Close to detach.
func NewFeed(d *depot.Depot, opts FeedOptions) *Feed {
	f := &Feed{d: d}
	f.hub = feed.NewHub(feed.Options{
		CursorSource: d.CacheGeneration,
		Name:         "depot",
		Metrics:      opts.Metrics,
	})
	d.SetPublisher(f.publish)
	if opts.Agreement != nil {
		f.status = newStatusFeed(d, opts.Agreement, opts.Metrics, f.hub)
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

// changeEvent is the wire payload of one change (the SSE "data" body).
// renderChange writes it; FuzzChangeEvent
// holds that to json.Marshal of this struct.
type changeEvent struct {
	Branch string `json:"branch"`
	Kind   string `json:"kind"`
	Report string `json:"report,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// renderChange renders a changeEvent byte for byte as json.Marshal does —
// branch, kind, then value under "report" for a stored report or "policy"
// otherwise, omitted when empty — into a buffer of exactly its length,
// without reflection and without copying the report into a string first.
func renderChange(branchID, kind string, report bool, value []byte) []byte {
	member := `,"policy":`
	if report {
		member = `,"report":`
	}
	n := len(`{"branch":,"kind":}`) + jsonQuotedLen(branchID) + jsonQuotedLen(kind)
	if len(value) > 0 {
		n += len(member) + jsonQuotedLen(value)
	}
	out := make([]byte, n)
	w := copy(out, `{"branch":`)
	w += putJSONString(out[w:], branchID)
	w += copy(out[w:], `,"kind":`)
	w += putJSONString(out[w:], kind)
	if len(value) > 0 {
		w += copy(out[w:], member)
		w += putJSONString(out[w:], value)
	}
	out[w] = '}'
	return out
}

// jsonEscapeLen is the length json.Marshal writes for each ASCII byte of a
// string: 1 for a byte it copies, 2 for \" \\ \b \f \n \r \t, and 6 for
// \u00XX — every other control byte, and < > & (it escapes HTML).
var jsonEscapeLen = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		switch {
		case b == '"' || b == '\\' || b == '\b' || b == '\f' || b == '\n' || b == '\r' || b == '\t':
			t[b] = 2
		case b < 0x20 || b == '<' || b == '>' || b == '&':
			t[b] = 6
		default:
			t[b] = 1
		}
	}
	return t
}()

// jsonQuotedLen is the length putJSONString writes for s: beyond ASCII, a
// rune json.Marshal escapes — an invalid byte (as \ufffd), U+2028 and
// U+2029 — takes 6 bytes, and every other rune its own length.
func jsonQuotedLen[T string | []byte](s T) int {
	n := 2
	for i := 0; ; {
		j := jsonPlainRun(s, i)
		n += j - i
		if i = j; i == len(s) {
			return n
		}
		if b := s[i]; b < utf8.RuneSelf {
			n += int(jsonEscapeLen[b])
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if c == utf8.RuneError && size == 1 || c == 0x2028 || c == 0x2029 {
			n += 6
		} else {
			n += size
		}
		i += size
	}
}

// putJSONString writes s quoted as json.Marshal quotes a string into the
// first jsonQuotedLen(s) bytes of out, and returns that length. Each run
// of bytes json.Marshal copies as they are is one copy.
func putJSONString[T string | []byte](out []byte, s T) int {
	const hex = "0123456789abcdef"
	out[0] = '"'
	w := 1
	for i := 0; ; {
		j := jsonPlainRun(s, i)
		w += copy(out[w:], s[i:j])
		if i = j; i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			e := int(jsonEscapeLen[b])
			if e == 2 {
				out[w] = '\\'
				switch b {
				case '\b':
					b = 'b'
				case '\f':
					b = 'f'
				case '\n':
					b = 'n'
				case '\r':
					b = 'r'
				case '\t':
					b = 't'
				}
				out[w+1] = b
			} else {
				copy(out[w:], `\u00`)
				out[w+4] = hex[b>>4]
				out[w+5] = hex[b&0xF]
			}
			w += e
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			w += copy(out[w:], `\ufffd`)
		case c == 0x2028 || c == 0x2029:
			w += copy(out[w:], `\u202`)
			out[w] = hex[c&0xF]
			w++
		default:
			w += copy(out[w:], s[i:i+size])
		}
		i += size
	}
	out[w] = '"'
	return w + 1
}

// jsonPlainRun returns the end of the run of bytes from s[i] on that
// json.Marshal copies as they are (jsonEscapeLen 1), eight at a time while
// it can: subtracting 0x20 from every byte sets some byte's top bit exactly
// when a byte is below 0x20, a byte at or above 0x80 has its own top bit
// set, and with every top bit clear x-ones sets one exactly when some byte
// of x is zero — so a zero byte of w^(c*ones) is a byte equal to c. '<'
// (0x3C) and '>' (0x3E) differ only in bit 1: setting it tests both.
func jsonPlainRun[T string | []byte](s T, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		bad := (w - 0x20*ones) | w |
			((w ^ '"'*ones) - ones) |
			((w ^ '\\'*ones) - ones) |
			((w ^ '&'*ones) - ones) |
			(((w | 2*ones) ^ '>'*ones) - ones)
		if bad&highs != 0 {
			break
		}
	}
	for i < len(s) && s[i] < utf8.RuneSelf && jsonEscapeLen[s[i]] == 1 {
		i++
	}
	return i
}

// publish is the depot's post-commit hook. It runs on every store, so the
// JSON body is left to the hub to render at the first subscriber that
// wants the event: with nobody listening a commit costs a cursor stamp.
func (f *Feed) publish(c depot.Change) {
	ev := feed.Event{Branch: c.Branch, Data: c.Report, Render: renderEvent}
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
	f.hub.Publish(ev)
}

// renderEvent is publish's Render: the change event's JSON body from the
// event as published, its Data the report (or the policy name).
func renderEvent(e feed.Event) []byte {
	return renderChange(e.Branch.String(), e.Kind.String(), e.Kind == feed.KindReport, e.Data)
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

// appendSSE appends one server-sent event frame to dst; data containing
// newlines is split across data: lines per the SSE spec (clients rejoin
// with \n).
func appendSSE(dst []byte, event, id string, data []byte) []byte {
	dst = append(dst, "event: "...)
	dst = append(dst, event...)
	dst = append(dst, "\nid: "...)
	dst = append(dst, id...)
	dst = append(dst, '\n')
	if len(data) == 0 {
		return append(dst, "data:\n\n"...)
	}
	for {
		dst = append(dst, "data: "...)
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			dst = append(dst, data...)
			return append(dst, "\n\n"...)
		}
		dst = append(dst, data[:i+1]...)
		data = data[i+1:]
	}
}

// writeSSE writes one frame on its own: a snapshot, a resume or an error.
func writeSSE(w io.Writer, event, id string, data []byte) {
	w.Write(appendSSE(make([]byte, 0, len(data)+len(event)+len(id)+32), event, id, data))
}

// sseWriteChunk bounds the frame buffer a stream keeps: a drained batch
// goes out in one Write up to this size, and in writes of about this size
// past it, so the buffer is reused at its size rather than grown per burst.
const sseWriteChunk = 32 << 10

func sseEventName(k feed.Kind) string {
	if k == feed.KindStatus {
		return "status"
	}
	return "change"
}

// ssePing is how often an idle stream sends a keepalive comment.
const ssePing = 15 * time.Second

// startSSE sends the event-stream headers; false for a HEAD request, which
// gets no body.
func startSSE(w http.ResponseWriter, r *http.Request) bool {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	return r.Method != http.MethodHead
}

// serveSSE is the transport under a depot's /feed: subscribe, catch up
// with a snapshot when the presented cursor is not current, then stream
// coalesced events as server-sent events.
func serveSSE(w http.ResponseWriter, r *http.Request, prefix branch.ID, hub *feed.Hub, snap func() ([]byte, error), cursor string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub, needSnapshot, current := hub.Subscribe(prefix, cursor)
	defer sub.Close()
	if !startSSE(w, r) {
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

	ping := time.NewTicker(ssePing)
	defer ping.Stop()
	var frames []byte // one drained batch, framed, for one Write
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
				frames = frames[:0]
				for _, e := range events {
					frames = appendSSE(frames, sseEventName(e.Kind), e.Cursor, e.Data)
					if len(frames) >= sseWriteChunk {
						w.Write(frames)
						frames = frames[:0]
					}
				}
				if len(frames) > 0 {
					w.Write(frames)
				}
			}
			flusher.Flush()
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

func newStatusFeed(d *depot.Depot, ag *agreement.Agreement, reg *metrics.Registry, src *feed.Hub) *statusFeed {
	sf := &statusFeed{
		hub:    feed.NewHub(feed.Options{Name: "status", Metrics: reg}),
		cache:  d.Cache(),
		inc:    agreement.NewIncremental(ag),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go sf.run(src)
	return sf
}

func (sf *statusFeed) stop() {
	close(sf.stopCh)
	<-sf.doneCh
	sf.hub.Close()
}

func (sf *statusFeed) run(src *feed.Hub) {
	defer close(sf.doneCh)
	sub, _, _ := src.Subscribe(branch.ID{}, "")
	defer sub.Close()
	sf.full()
	tick := time.NewTicker(reverifyEvery)
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
