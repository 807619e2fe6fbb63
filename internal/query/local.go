package query

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/federation"
	"inca/internal/metrics"
	"inca/internal/rrd"
)

// local is the backend of a server that hosts its depot: every answer is
// read from, or stored into, that depot.
type local struct {
	srv *Server // for what the embedding process sets after construction: Feed, the spec store
	d   *depot.Depot

	// Read-path counters, on /metrics when the server has a registry.
	queryHits   *metrics.Counter // /cache and /reports queries that found data
	queryMisses *metrics.Counter // queries for absent branches (404)
	conditional *metrics.Counter // requests carrying If-None-Match
	notModified *metrics.Counter // conditional requests answered 304
	availHits   *metrics.Counter // availability pages served from the memo
	availMisses *metrics.Counter // availability pages rendered fresh

	availMu sync.Mutex
	avail   map[string]availEntry // canonical query params → rendered page
}

// availEntry is one memoized availability rendering; valid while the
// archive generation is unchanged.
type availEntry struct {
	gen  uint64
	page document
}

// availMemoCap bounds the memo; the map resets once it is exceeded (the
// parameter space is small in practice — consumers poll a handful of
// dashboards — so eviction sophistication buys nothing).
const availMemoCap = 128

func newLocal(srv *Server, d *depot.Depot, reg *metrics.Registry) *local {
	return &local{
		srv:         srv,
		d:           d,
		avail:       make(map[string]availEntry),
		queryHits:   reg.Counter("inca_query_hits_total", "Cache and report queries that found data."),
		queryMisses: reg.Counter("inca_query_misses_total", "Queries for absent branches (404)."),
		conditional: reg.Counter("inca_query_conditional_total", "Requests carrying If-None-Match."),
		notModified: reg.Counter("inca_query_not_modified_total", "Conditional requests answered 304."),
		availHits:   reg.Counter("inca_query_availability_memo_hits_total", "Availability pages served from the memo."),
		availMisses: reg.Counter("inca_query_availability_renders_total", "Availability pages rendered fresh."),
	}
}

// ready is always nil: a depot that answers can serve. inca-server opens
// its HTTP listener only after OpenDisk has replayed the WAL (or the
// snapshot is restored) and the feed is attached, so a depot mid-replay
// is never reachable in that startup order.
func (b *local) ready(context.Context) error { return nil }

func (b *local) routes() []route {
	routes := []route{
		{"/archive", "archive", readOnly(b.handleArchive)},
		{"/graph", "graph", readOnly(b.handleGraph)},
		{"/spec", "spec", b.handleSpec},
		{"/slice", "slice", only("GET, HEAD, POST", b.handleSlice)},
	}
	if b.srv.Feed != nil && b.srv.Feed.status != nil {
		routes = append(routes, route{"/summary", "summary", readOnly(b.handleSummary)})
	}
	return routes
}

// unchanged reports whether the client's validator still names tag. It
// runs before any cache query — the point of the generation-derived ETag
// is that an up-to-date consumer costs one integer comparison, not one
// document scan.
func (b *local) unchanged(inm, tag string) bool {
	if inm == "" {
		return false
	}
	b.conditional.Inc()
	for _, cand := range strings.Split(inm, ",") {
		if c := strings.TrimSpace(cand); c == tag || c == "*" {
			b.notModified.Inc()
			return true
		}
	}
	return false
}

// cache answers /cache at id. A router that asks for the child index at
// depth (federation.DepthHeader) gets it with the body, from the render
// that produced the body; a cache too wide for one header sends none.
func (b *local) cache(id branch.ID, inm string, depth int) (document, error) {
	tag := etagFor(b.d.CacheGeneration())
	if b.unchanged(inm, tag) {
		return document{tag: tag, notModified: true}, nil
	}
	var sub []byte
	var ends []int
	var ok bool
	var err error
	ic, _ := b.d.Cache().(*depot.IndexedCache)
	indexed := ic != nil && depth > 0
	if indexed {
		sub, ends, ok, err = ic.QueryIndex(id, depth)
	} else {
		sub, ok, err = b.d.Cache().Query(id)
	}
	if err != nil {
		return document{}, err
	}
	if !ok {
		b.queryMisses.Inc()
		return document{}, httpError{http.StatusNotFound, "no data at branch " + id.String()}
	}
	b.queryHits.Inc()
	d := bytesDoc("text/xml", tag, sub)
	if indexed && len(ends) <= federation.MaxIndexEntries {
		d.index = string(federation.AppendIndex(make([]byte, 0, 8*len(ends)+8), depth, ends))
	}
	return d, nil
}

// maxPooledBody is the largest buffer reportsPool keeps. A report list
// over it (the whole cache's, on a large depot) is put together in a
// buffer of its own that the collector takes back, so the pool never pins
// one.
const maxPooledBody = 1 << 20

// reportsPool holds the buffers report lists are put together in.
var reportsPool = sync.Pool{New: func() any { return new([]byte) }}

// reports is the report list, put together in one pooled buffer and so
// written with one Write (not through net/http's 4 KB buffer a piece at a
// time): each report's attribute and payload are the bytes the cache holds
// (Stored.Attr and Stored.XML, shared, nothing escaped or copied per
// read), and the exact length is summed up front so the buffer is sized
// once. The buffer goes back to the pool once the answer is written.
func (b *local) reports(id branch.ID, inm string) (document, error) {
	tag := etagFor(b.d.CacheGeneration())
	if b.unchanged(inm, tag) {
		return document{tag: tag, notModified: true}, nil
	}
	stored, err := b.d.Cache().Reports(id)
	if err != nil {
		return document{}, err
	}
	if len(stored) == 0 {
		b.queryMisses.Inc()
	} else {
		b.queryHits.Inc()
	}
	const (
		openTag   = `<stored branch="`
		closeAttr = `">`
		closeTag  = `</stored>`
	)
	total := len("<reports></reports>")
	for _, st := range stored {
		total += len(openTag) + len(st.Attr) + len(closeAttr) + len(st.XML) + len(closeTag)
	}
	var bp *[]byte
	var body []byte
	if total <= maxPooledBody {
		bp = reportsPool.Get().(*[]byte)
		body = slices.Grow((*bp)[:0], total)
	} else {
		body = make([]byte, 0, total)
	}
	body = append(body, "<reports>"...)
	for _, st := range stored {
		body = append(body, openTag...)
		body = append(body, st.Attr...)
		body = append(body, closeAttr...)
		body = append(body, st.XML...)
		body = append(body, closeTag...)
	}
	body = append(body, "</reports>"...)
	d := bytesDoc("text/xml", tag, body)
	if bp != nil {
		*bp = body[:0]
		d.release = func() { reportsPool.Put(bp) }
	}
	return d, nil
}

// availability memoizes renders per (canonical query string, archive
// generation): building the page walks every requested resource's
// archives, and the page changes only when an archive takes a sample, so
// between samples the repeat cost collapses to a map lookup.
func (b *local) availability(q *availQuery, inm string) (document, error) {
	gen := b.d.ArchiveGeneration()
	tag := etagFor(gen)
	if b.unchanged(inm, tag) {
		return document{tag: tag, notModified: true}, nil
	}
	key := q.values.Encode()
	b.availMu.Lock()
	e, ok := b.avail[key]
	b.availMu.Unlock()
	if ok && e.gen == gen {
		b.availHits.Inc()
		return e.page, nil
	}
	page, err := consumer.BuildAvailabilityPage(b.d, availabilityTitle, q.resources, q.cats, q.start, q.end)
	if err != nil {
		return document{}, err
	}
	doc, err := q.render(page, tag)
	if err != nil {
		return document{}, err
	}
	b.availMisses.Inc()
	b.availMu.Lock()
	if len(b.avail) >= availMemoCap {
		b.avail = make(map[string]availEntry)
	}
	b.avail[key] = availEntry{gen: gen, page: doc}
	b.availMu.Unlock()
	return doc, nil
}

func (b *local) stats() (xmlStats, error) {
	st := b.d.Stats()
	return xmlStats{
		Received: st.Received, Bytes: st.Bytes,
		CacheSize: st.CacheSize, CacheCount: st.CacheCount, Archives: st.Archives,
	}, nil
}

// xmlReceipt is the wire form of a depot.Receipt.
type xmlReceipt struct {
	XMLName    xml.Name `xml:"receipt"`
	Branch     string   `xml:"branch,attr"`
	ReportSize int      `xml:"reportSize,attr"`
	CacheSize  int      `xml:"cacheSize,attr"`
	UnpackNs   int64    `xml:"unpackNs,attr"`
	InsertNs   int64    `xml:"insertNs,attr"`
	ArchiveNs  int64    `xml:"archiveNs,attr"`
	Added      bool     `xml:"added,attr"`
}

func (b *local) store(envelope []byte) (document, error) {
	rec, err := b.d.StoreEnvelope(envelope)
	if err != nil {
		return document{}, httpError{http.StatusBadRequest, err.Error()}
	}
	receipt, err := xml.Marshal(xmlReceipt{
		Branch:     rec.Branch.String(),
		ReportSize: rec.ReportSize,
		CacheSize:  rec.CacheSize,
		UnpackNs:   rec.Unpack.Nanoseconds(),
		InsertNs:   rec.Insert.Nanoseconds(),
		ArchiveNs:  rec.Archive.Nanoseconds(),
		Added:      rec.Added,
	})
	return bytesDoc("text/xml", "", receipt), err
}

func (b *local) policy(policyXML []byte) (document, error) {
	p, err := depot.ParsePolicy(policyXML)
	if err != nil {
		return document{}, httpError{http.StatusBadRequest, err.Error()}
	}
	if err := b.d.AddPolicy(p); errors.Is(err, depot.ErrPolicyName) || errors.Is(err, depot.ErrInvalidPolicy) {
		return document{}, httpError{http.StatusBadRequest, err.Error()}
	} else if err != nil {
		return document{}, httpError{http.StatusConflict, err.Error()}
	}
	return document{}, nil
}

// handleSlice serves the depot's slice (GET) and applies one (POST; 400,
// before anything changes, for a slice that does not read whole): the
// state a router moves for a join, a leave and a catch-up (DESIGN.md §5c).
// A slice is a depot's whole state, so the body's bound only stops a
// runaway.
func (b *local) handleSlice(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		var buf bytes.Buffer
		err := b.d.WriteSlice(&buf)
		answer(w, r, bytesDoc("application/octet-stream", "", buf.Bytes()), err)
		return
	}
	post(w, r, 1<<30, func(body []byte) (document, error) {
		s, err := depot.ReadSlice(body)
		if err != nil {
			return document{}, httpError{http.StatusBadRequest, err.Error()}
		}
		res, err := b.d.ApplySlice(s)
		out, _ := xml.Marshal(res) // ints only: cannot fail
		return bytesDoc("text/xml", "", out), err
	})
}

func (b *local) policies() (document, error) {
	data, err := depot.MarshalPolicies(b.d.Policies())
	return bytesDoc("text/xml", "", data), err
}

func (b *local) feed(w http.ResponseWriter, r *http.Request, prefix branch.ID, cursor string, status bool) error {
	f := b.srv.Feed
	switch {
	case f == nil:
		return httpError{http.StatusNotFound, "feed disabled"}
	case !status:
		serveSSE(w, r, prefix, f.hub, func() ([]byte, error) { return f.snapshot(prefix) }, cursor)
	case f.status == nil:
		return httpError{http.StatusNotFound, "status stream disabled"}
	default:
		serveSSE(w, r, prefix, f.status.hub, f.status.snapshot, cursor)
	}
	return nil
}

func archiveParams(r *http.Request) (branch.ID, string, rrd.CF, time.Time, time.Time, error) {
	q := r.URL.Query()
	id, err := branch.Parse(q.Get("branch"))
	if err != nil {
		return branch.ID{}, "", 0, time.Time{}, time.Time{}, err
	}
	policy := q.Get("policy")
	if policy == "" {
		return branch.ID{}, "", 0, time.Time{}, time.Time{}, fmt.Errorf("policy parameter required")
	}
	cf, err := rrd.ParseCF(q.Get("cf"))
	if err != nil {
		return branch.ID{}, "", 0, time.Time{}, time.Time{}, err
	}
	start, err := time.Parse(time.RFC3339, q.Get("start"))
	if err != nil {
		return branch.ID{}, "", 0, time.Time{}, time.Time{}, fmt.Errorf("bad start: %w", err)
	}
	end, err := time.Parse(time.RFC3339, q.Get("end"))
	if err != nil {
		return branch.ID{}, "", 0, time.Time{}, time.Time{}, fmt.Errorf("bad end: %w", err)
	}
	return id, policy, cf, start, end, nil
}

func (b *local) handleArchive(w http.ResponseWriter, r *http.Request) {
	id, policy, cf, start, end, err := archiveParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Each archived series validates with its own update counter, so a
	// poller's ETag stays good while *other* series ingest — a depot-wide
	// generation would invalidate every /archive client on every applied
	// sample. An up-to-date poller costs one integer comparison, no fetch
	// and no CSV rendering.
	var tag string
	if gen, ok := b.d.ArchiveSeriesGeneration(id, policy); ok {
		tag = etagFor(gen)
		if b.unchanged(r.Header.Get("If-None-Match"), tag) {
			answer(w, r, document{tag: tag, notModified: true}, nil)
			return
		}
	}
	series, err := b.d.FetchArchive(id, policy, cf, start, end)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	var body bytes.Buffer
	body.WriteString("time,value\n")
	for _, p := range series.Points {
		v := "nan"
		if !math.IsNaN(p.Values[0]) {
			v = strconv.FormatFloat(p.Values[0], 'g', -1, 64)
		}
		fmt.Fprintf(&body, "%s,%s\n", p.Time.Format(time.RFC3339), v)
	}
	answer(w, r, bytesDoc("text/csv", tag, body.Bytes()), nil)
}

func (b *local) handleGraph(w http.ResponseWriter, r *http.Request) {
	id, policy, cf, start, end, err := archiveParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	series, err := b.d.FetchArchive(id, policy, cf, start, end)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	out, err := rrd.Graph(series, policy, rrd.GraphOptions{
		Title:  q.Get("title"),
		YLabel: q.Get("ylabel"),
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, out)
}

// handleSummary serves the status stream's current full state as JSON —
// the paper's Figure 4 page, machine-readable, without subscribing.
func (b *local) handleSummary(w http.ResponseWriter, r *http.Request) {
	body, err := b.srv.Feed.status.snapshot()
	answer(w, r, bytesDoc("application/json; charset=utf-8", "", body), err)
}
