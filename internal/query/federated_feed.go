package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"inca/internal/branch"
	"inca/internal/federation"
	"inca/internal/feed"
	"inca/internal/simtime"
	"inca/internal/wire"
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
	// watchHTTP is the watchers' client. The tier's scatter client carries
	// a per-request timeout, which would sever a healthy stream, so the
	// watchers have their own transport, with a read buffer sized for a
	// batch: a burst of changes crosses the socket in one read.
	watchHTTP *http.Client

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
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.ReadBufferSize = wire.BatchBuffer
	ff := &FederatedFeed{fed: f, watchHTTP: &http.Client{Transport: transport}}
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
	ff.watchHTTP.CloseIdleConnections()
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
// backoff on transport errors.
func (ff *FederatedFeed) watch(i int, s federation.Shard, gen string, stop chan struct{}) {
	defer ff.wg.Done()
	base := s.BaseURL()
	if base == "" {
		ff.setUnsupported(gen, s.Name(), true)
		return
	}
	c := &Client{Base: base, HTTP: ff.watchHTTP}
	cursor := ""
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
		stale := ff.relay(i, gen, fs, &cursor)
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
func (ff *FederatedFeed) relay(i int, gen string, fs *FeedStream, cursor *string) bool {
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
			// The shard's changes before this snapshot reached no
			// subscriber through us: not on our first connection, when a
			// subscriber may have attached before we did, nor after the
			// shard demoted us or restarted (new epoch). We cannot forward
			// the snapshot (our subscribers hold different prefixes), so
			// demote them all to a merged snapshot at the new cursor.
			ff.hub.ForceResync()
		case "resume":
			*cursor = ev.Cursor
			if _, ok := ff.setCursor(gen, i, ev.Cursor); !ok {
				return true
			}
		case "change":
			*cursor = ev.Cursor
			composed, ok := ff.setCursor(gen, i, ev.Cursor)
			if !ok {
				return true
			}
			fe, err := upstreamEvent(ev)
			if err != nil {
				// The cursor has moved past a change no subscriber will
				// see: demote them all to a merged snapshot that holds it.
				ff.hub.ForceResync()
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
// preserving the coalescing identity Feed.publish assigned. It reads only
// the routing fields (scanChange): the report, most of the body, is
// validated but never unquoted, and ev.Data itself becomes the event's
// payload — the caller hands it to the hub and keeps no reference.
func upstreamEvent(ev FeedEvent) (feed.Event, error) {
	fc, err := scanChange(ev.Data)
	if err != nil {
		return feed.Event{}, err
	}
	name := string(fc.branch)
	id, err := branch.Parse(name)
	if err != nil {
		return feed.Event{}, err
	}
	fe := feed.Event{Branch: id, Data: ev.Data}
	switch string(fc.kind) {
	case "report":
		fe.Kind = feed.KindReport
		fe.Key = name // the identifier as the shard rendered it, not rendered again
	case "policy":
		fe.Kind = feed.KindPolicy
		fe.Key = "policy|" + string(fc.policy)
	case "manual":
		fe.Kind = feed.KindManual
		fe.Key = name + "|" + string(fc.policy)
	default:
		return feed.Event{}, fmt.Errorf("query: unknown change kind %q", fc.kind)
	}
	return fe, nil
}

// changeRouting is what the relay reads of a change event: each value as
// json.Unmarshal would decode it, nil when the member is absent.
type changeRouting struct{ branch, kind, policy []byte }

var errBadChange = errors.New("query: bad change event")

// scanChange reads branch, kind and policy from a change event, which must
// be a JSON object whose members are all strings. It accepts nothing
// json.Unmarshal would refuse and reads the fields json.Unmarshal would
// (FuzzUpstreamEvent): every byte is validated as encoding/json validates
// it, member names match its way (case-insensitively, last one wins), and
// a name or routing value that holds an escape or a non-ASCII byte is
// decoded by json.Unmarshal itself, on that one token. Other values, the
// report above all, are checked and skipped, never unescaped.
func scanChange(data []byte) (changeRouting, error) {
	var fc changeRouting
	i := skipJSONSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return fc, errBadChange
	}
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return fc, endJSON(data, i+1)
	}
	for {
		kEnd, kPlain, err := scanJSONString(data, i)
		if err != nil {
			return fc, err
		}
		key, err := jsonStringValue(data[i:kEnd], kPlain)
		if err != nil {
			return fc, err
		}
		i = skipJSONSpace(data, kEnd)
		if i == len(data) || data[i] != ':' {
			return fc, errBadChange
		}
		i = skipJSONSpace(data, i+1)
		vEnd, vPlain, err := scanJSONString(data, i)
		if err != nil {
			return fc, err
		}
		var field *[]byte
		switch {
		case bytes.EqualFold(key, []byte("branch")):
			field = &fc.branch
		case bytes.EqualFold(key, []byte("kind")):
			field = &fc.kind
		case bytes.EqualFold(key, []byte("policy")):
			field = &fc.policy
		}
		if field != nil {
			if *field, err = jsonStringValue(data[i:vEnd], vPlain); err != nil {
				return fc, err
			}
		}
		i = skipJSONSpace(data, vEnd)
		switch {
		case i < len(data) && data[i] == ',':
			i = skipJSONSpace(data, i+1)
		case i < len(data) && data[i] == '}':
			return fc, endJSON(data, i+1)
		default:
			return fc, errBadChange
		}
	}
}

// endJSON accepts what may follow a top-level value: whitespace only.
func endJSON(data []byte, i int) error {
	if skipJSONSpace(data, i) != len(data) {
		return errBadChange
	}
	return nil
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// scanJSONString validates the JSON string that opens at data[i] and
// returns the index just past its closing quote. plain is true when the
// token's text is its value: no escape and no byte outside ASCII.
func scanJSONString(data []byte, i int) (end int, plain bool, err error) {
	if i == len(data) || data[i] != '"' {
		return 0, false, errBadChange
	}
	plain = true
	for i++; i < len(data); {
		b := data[i]
		if b < utf8.RuneSelf && jsonEscapeLen[b] == 1 {
			i++ // a byte json.Marshal copies through: the bulk of a report
			continue
		}
		switch {
		case b == '"':
			return i + 1, plain, nil
		case b == '\\':
			plain = false
			if i+1 == len(data) {
				return 0, false, errBadChange
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(data) || !(jsonHex[data[i+2]] && jsonHex[data[i+3]] && jsonHex[data[i+4]] && jsonHex[data[i+5]]) {
					return 0, false, errBadChange
				}
				i += 6
			default:
				return 0, false, errBadChange
			}
		case b < 0x20:
			return 0, false, errBadChange
		default:
			if b >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	return 0, false, errBadChange
}

// jsonHex marks the bytes a \uXXXX escape may hold.
var jsonHex = func() (t [256]bool) {
	for _, c := range "0123456789abcdefABCDEF" {
		t[c] = true
	}
	return t
}()

// jsonStringValue returns the value of a validated string token, quotes
// included: the text between them when it is plain (aliasing tok),
// json.Unmarshal's decoding otherwise.
func jsonStringValue(tok []byte, plain bool) ([]byte, error) {
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadChange, err)
	}
	return []byte(s), nil
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
