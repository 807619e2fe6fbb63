package query

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/feed"
	"inca/internal/metrics"
	"inca/internal/rrd"
)

// local is the backend of a server that hosts its depot: every answer is
// read from, or stored into, that depot.
type local struct {
	srv *Server // for what the embedding process sets after construction: Feed, WireStats, the spec store
	d   *depot.Depot

	// Read-path counters, exposed on /debug/vars (and, with a registry,
	// on /metrics).
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

func (b *local) routes() []route {
	routes := []route{
		{"/archive", "archive", readOnly(b.handleArchive)},
		{"/graph", "graph", readOnly(b.handleGraph)},
		{"/spec", "spec", b.handleSpec},
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

func (b *local) cache(id branch.ID, inm string) (document, error) {
	tag := etagFor(b.d.CacheGeneration())
	if b.unchanged(inm, tag) {
		return document{tag: tag, notModified: true}, nil
	}
	sub, ok, err := b.d.Cache().Query(id)
	if err != nil {
		return document{}, err
	}
	if !ok {
		b.queryMisses.Inc()
		return document{}, httpError{http.StatusNotFound, "no data at branch " + id.String()}
	}
	b.queryHits.Inc()
	return bytesDoc("text/xml", tag, sub), nil
}

// reports is the report list as a streamed document: branch identifiers
// are escaped into one reused buffer (no per-identifier string allocation)
// and the pieces are written straight to the response — the exact length
// is known up front from the piece lengths, so no second full-response
// buffer is built.
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
	var esc bytes.Buffer
	offs := make([]int, len(stored)+1)
	total := len("<reports></reports>")
	for i, st := range stored {
		xml.EscapeText(&esc, []byte(st.ID.String()))
		offs[i+1] = esc.Len()
		total += len(openTag) + (offs[i+1] - offs[i]) + len(closeAttr) + len(st.XML) + len(closeTag)
	}
	return document{contentType: "text/xml", tag: tag, len: total, write: func(w io.Writer) {
		escaped := esc.Bytes()
		io.WriteString(w, "<reports>")
		for i, st := range stored {
			io.WriteString(w, openTag)
			w.Write(escaped[offs[i]:offs[i+1]])
			io.WriteString(w, closeAttr)
			w.Write(st.XML)
			io.WriteString(w, closeTag)
		}
		io.WriteString(w, "</reports>")
	}}, nil
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

// xmlPolicy is the wire form of a depot.Policy.
type xmlPolicy struct {
	XMLName     xml.Name `xml:"archivalPolicy"`
	Name        string   `xml:"name,attr"`
	Prefix      string   `xml:"prefix,attr"`
	Path        string   `xml:"path,attr"`
	Step        string   `xml:"step,attr"`
	Granularity int      `xml:"granularity,attr"`
	History     string   `xml:"history,attr"`
	Heartbeat   string   `xml:"heartbeat,attr"`
	// CFs is a comma-separated consolidation function list (default
	// AVERAGE).
	CFs string `xml:"cfs,attr"`
}

func (b *local) policy(policyXML []byte) (document, error) {
	var xp xmlPolicy
	if err := xml.Unmarshal(policyXML, &xp); err != nil {
		return document{}, httpError{http.StatusBadRequest, err.Error()}
	}
	p, err := policyFromXML(xp)
	if err != nil {
		return document{}, httpError{http.StatusBadRequest, err.Error()}
	}
	if err := b.d.AddPolicy(p); err != nil {
		return document{}, httpError{http.StatusConflict, err.Error()}
	}
	return document{}, nil
}

func policyFromXML(xp xmlPolicy) (depot.Policy, error) {
	prefix, err := branch.Parse(xp.Prefix)
	if err != nil {
		return depot.Policy{}, fmt.Errorf("bad prefix: %w", err)
	}
	step, err := time.ParseDuration(xp.Step)
	if err != nil {
		return depot.Policy{}, fmt.Errorf("bad step: %w", err)
	}
	history, err := time.ParseDuration(xp.History)
	if err != nil {
		return depot.Policy{}, fmt.Errorf("bad history: %w", err)
	}
	var hb time.Duration
	if xp.Heartbeat != "" {
		if hb, err = time.ParseDuration(xp.Heartbeat); err != nil {
			return depot.Policy{}, fmt.Errorf("bad heartbeat: %w", err)
		}
	}
	var cfs []rrd.CF
	if xp.CFs != "" {
		for _, s := range strings.Split(xp.CFs, ",") {
			cf, err := parseCF(strings.TrimSpace(s))
			if err != nil {
				return depot.Policy{}, err
			}
			cfs = append(cfs, cf)
		}
	}
	return depot.Policy{
		Name:   xp.Name,
		Prefix: prefix,
		Path:   xp.Path,
		Archive: rrd.ArchivalPolicy{
			Step:        step,
			Granularity: xp.Granularity,
			History:     history,
			Heartbeat:   hb,
			CFs:         cfs,
		},
	}, nil
}

func (b *local) feed(status bool) (*feed.Hub, func(branch.ID) ([]byte, error), error) {
	f := b.srv.Feed
	switch {
	case f == nil:
		return nil, nil, httpError{http.StatusNotFound, "feed disabled"}
	case !status:
		return f.hub, f.snapshot, nil
	case f.status == nil:
		return nil, nil, httpError{http.StatusNotFound, "status stream disabled"}
	}
	return f.status.hub, func(branch.ID) ([]byte, error) { return f.status.snapshot() }, nil
}

func parseCF(s string) (rrd.CF, error) {
	switch strings.ToUpper(s) {
	case "", "AVERAGE":
		return rrd.Average, nil
	case "MIN":
		return rrd.Min, nil
	case "MAX":
		return rrd.Max, nil
	case "LAST":
		return rrd.Last, nil
	default:
		return 0, fmt.Errorf("unknown consolidation function %q", s)
	}
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
	cf, err := parseCF(q.Get("cf"))
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

// DebugVars is the JSON shape of /debug/vars: depot ingest counters plus
// the read-path counters this server maintains.
type DebugVars struct {
	Received            uint64 `json:"received"`
	Bytes               uint64 `json:"bytes"`
	CacheSize           int    `json:"cache_size"`
	CacheCount          int    `json:"cache_count"`
	Archives            int    `json:"archives"`
	Versioned           bool   `json:"versioned"`
	Generation          uint64 `json:"generation"`
	ArchiveGeneration   uint64 `json:"archive_generation"`
	ArchiveMatched      uint64 `json:"archive_matched"`
	ArchiveApplied      uint64 `json:"archive_applied"`
	QueryHits           uint64 `json:"query_hits"`
	QueryMisses         uint64 `json:"query_misses"`
	ConditionalRequests uint64 `json:"conditional_requests"`
	NotModified         uint64 `json:"not_modified"`
	AvailabilityHits    uint64 `json:"availability_hits"`
	AvailabilityMisses  uint64 `json:"availability_misses"`

	// delivery_* is the TCP ingest side (the agent→controller wire
	// protocol), present when the embedding process registered its wire
	// server via Server.WireStats. DeliveryMessages should reconcile with
	// Received: every message the wire accepted reached the depot.
	DeliveryWired           bool   `json:"delivery_wired"`
	DeliveryConnsAccepted   uint64 `json:"delivery_conns_accepted"`
	DeliveryConnsIdleClosed uint64 `json:"delivery_conns_idle_closed"`
	DeliveryMessages        uint64 `json:"delivery_messages"`
	DeliveryBatches         uint64 `json:"delivery_batches"`
}

func (b *local) vars() any {
	st := b.d.Stats()
	v := DebugVars{
		Received:            st.Received,
		Bytes:               st.Bytes,
		CacheSize:           st.CacheSize,
		CacheCount:          st.CacheCount,
		Archives:            st.Archives,
		Versioned:           true, // every cache has a generation; the key stays for readers of the page
		Generation:          b.d.CacheGeneration(),
		ArchiveGeneration:   b.d.ArchiveGeneration(),
		ArchiveMatched:      st.Archive.Matched,
		ArchiveApplied:      st.Archive.Applied,
		QueryHits:           b.queryHits.Value(),
		QueryMisses:         b.queryMisses.Value(),
		ConditionalRequests: b.conditional.Value(),
		NotModified:         b.notModified.Value(),
		AvailabilityHits:    b.availHits.Value(),
		AvailabilityMisses:  b.availMisses.Value(),
	}
	if b.srv.WireStats != nil {
		ws := b.srv.WireStats()
		v.DeliveryWired = true
		v.DeliveryConnsAccepted = ws.ConnsAccepted
		v.DeliveryConnsIdleClosed = ws.ConnsIdleClosed
		v.DeliveryMessages = ws.Messages
		v.DeliveryBatches = ws.Batches
	}
	return v
}
