// Package query implements Inca's web-service layer: the depot's store
// interface used by the centralized controller (paper Section 3.2.1) and
// the querying interface for data consumers (Section 3.2.3), which serves
// both current data from the cache (by branch identifier, or the whole
// cache when none is supplied) and archived time series.
//
// The read side is cache-aware: /cache and /reports responses carry an
// ETag derived from the cache generation (depot.Cache.Generation), and
// conditional requests (If-None-Match)
// short-circuit to 304 Not Modified before any cache work happens — the
// cheapest possible answer to the most common consumer poll ("anything
// new since last time?"). The availability overview is memoized on
// (query parameters, generation) for the same reason: between depot
// writes, repeat renders are free.
package query

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/metrics"
	"inca/internal/rrd"
	"inca/internal/wire"
)

// Server exposes a depot over HTTP.
type Server struct {
	d     *depot.Depot
	specs *SpecStore
	reg   *metrics.Registry // nil: instruments stay private, no /metrics route

	// WireStats, when set by the embedding process, surfaces the TCP
	// ingest server's connection/frame counters on /debug/vars as the
	// delivery_* group (e.g. qsrv.WireStats = wireSrv.Stats).
	WireStats func() wire.ServerStats

	// Pprof, when set before Handler is called, mounts the runtime
	// profiling endpoints under /debug/pprof/ (inca-server -pprof).
	Pprof bool

	// Feed, when set before Handler is called, mounts the change feed
	// on /feed (and, when the feed evaluates an agreement, the status
	// snapshot on /summary). See NewFeed.
	Feed *Feed

	// Read-path counters, exposed on /debug/vars (and, with a registry,
	// on /metrics).
	queryHits   *metrics.Counter // /cache and /reports queries that found data
	queryMisses *metrics.Counter // queries for absent branches (404)
	conditional *metrics.Counter // requests carrying If-None-Match
	notModified *metrics.Counter // conditional requests answered 304
	availHits   *metrics.Counter // availability pages served from the memo
	availMisses *metrics.Counter // availability pages rendered fresh

	availMu sync.Mutex
	avail   map[string]*availEntry // canonical query params → rendered page
}

// availEntry is one memoized availability rendering; valid while the
// cache generation is unchanged.
type availEntry struct {
	gen  uint64
	body []byte
}

// availMemoCap bounds the memo; the map resets once it is exceeded (the
// parameter space is small in practice — consumers poll a handful of
// dashboards — so eviction sophistication buys nothing).
const availMemoCap = 128

// NewServer wraps d.
func NewServer(d *depot.Depot) *Server {
	return NewServerMetrics(d, nil)
}

// NewServerMetrics is NewServer with the read-path instruments registered
// in reg and a Prometheus text endpoint mounted at /metrics. A nil reg
// keeps the instruments private and omits the route.
func NewServerMetrics(d *depot.Depot, reg *metrics.Registry) *Server {
	s := &Server{d: d, reg: reg, avail: make(map[string]*availEntry)}
	s.queryHits = reg.Counter("inca_query_hits_total", "Cache and report queries that found data.")
	s.queryMisses = reg.Counter("inca_query_misses_total", "Queries for absent branches (404).")
	s.conditional = reg.Counter("inca_query_conditional_total", "Requests carrying If-None-Match.")
	s.notModified = reg.Counter("inca_query_not_modified_total", "Conditional requests answered 304.")
	s.availHits = reg.Counter("inca_query_availability_memo_hits_total", "Availability pages served from the memo.")
	s.availMisses = reg.Counter("inca_query_availability_renders_total", "Availability pages rendered fresh.")
	return s
}

// timed wraps a handler with the per-endpoint latency histogram
// inca_query_request_seconds{handler=name} on reg. Observation covers the
// full handler, 304s and errors included — the consumer-visible response
// time. The single depot and the federated tier share it.
func timed(reg *metrics.Registry, name string, h http.HandlerFunc) http.HandlerFunc {
	hist := reg.Histogram("inca_query_request_seconds", "Query HTTP request latency by endpoint.", nil, "handler", name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.ObserveSince(start)
	}
}

// Handler returns the HTTP mux:
//
//	POST /store       — envelope in the body; returns an XML receipt
//	POST /policy      — archival policy XML
//	GET  /cache       — ?branch= subtree (whole cache when omitted); ETag/304
//	GET  /reports     — ?branch= all reports under the prefix; ETag/304
//	GET  /archive     — ?branch=&policy=&cf=&start=&end= CSV series
//	GET  /graph       — same params plus &title=&ylabel=; ASCII plot
//	GET  /stats       — depot counters as XML
//	GET  /availability — VO-wide availability overview (memoized)
//	GET  /feed        — SSE/long-poll change feed (servers with Feed set;
//	                    ?branch=&cursor=&stream=&mode=&wait=)
//	GET  /summary     — live agreement status as JSON (feed servers
//	                    evaluating an agreement only)
//	GET  /debug/vars  — read-path counters as JSON
//	GET  /metrics     — Prometheus text exposition (servers built with
//	                    NewServerMetrics only)
//	GET  /debug/pprof/* — runtime profiles (Pprof field set only)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/store", timed(s.reg, "store", s.handleStore))
	mux.HandleFunc("/policy", timed(s.reg, "policy", s.handlePolicy))
	mux.HandleFunc("/cache", timed(s.reg, "cache", readOnly(s.handleCache)))
	mux.HandleFunc("/reports", timed(s.reg, "reports", readOnly(s.handleReports)))
	mux.HandleFunc("/archive", timed(s.reg, "archive", readOnly(s.handleArchive)))
	mux.HandleFunc("/graph", timed(s.reg, "graph", readOnly(s.handleGraph)))
	mux.HandleFunc("/stats", timed(s.reg, "stats", readOnly(s.handleStats)))
	mux.HandleFunc("/spec", timed(s.reg, "spec", s.handleSpec))
	mux.HandleFunc("/availability", timed(s.reg, "availability", readOnly(s.handleAvailability)))
	mux.HandleFunc("/debug/vars", timed(s.reg, "debug_vars", readOnly(s.handleDebugVars)))
	if s.Feed != nil {
		mux.HandleFunc("/feed", timed(s.reg, "feed", readOnly(s.handleFeed)))
		if s.Feed.status != nil {
			mux.HandleFunc("/summary", timed(s.reg, "summary", readOnly(s.handleSummary)))
		}
	}
	if s.reg != nil {
		mux.Handle("/metrics", s.reg.Handler())
	}
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// readOnly rejects anything but GET and HEAD on a read endpoint.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// etagFor renders a generation as a strong entity tag. Each endpoint has
// per-URL semantics, so the bare generation is a sufficient validator:
// equal generation implies a byte-identical cache, hence byte-identical
// responses.
func etagFor(gen uint64) string {
	return `"` + strconv.FormatUint(gen, 10) + `"`
}

// checkNotModified answers a conditional request with 304 when the
// client's validator still matches. It runs before any cache query — the
// point of the generation-derived ETag is that an up-to-date consumer
// costs one integer comparison, not one document scan.
func (s *Server) checkNotModified(w http.ResponseWriter, r *http.Request, tag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	s.conditional.Inc()
	for _, cand := range strings.Split(inm, ",") {
		if c := strings.TrimSpace(cand); c == tag || c == "*" {
			w.Header().Set("ETag", tag)
			w.WriteHeader(http.StatusNotModified)
			s.notModified.Inc()
			return true
		}
	}
	return false
}

// handleAvailability renders the VO-wide availability overview page:
// GET /availability?resource=a&resource=b&category=Grid&start=&end=[&format=text]
//
// Renders are memoized per (canonical query string, cache generation):
// building the page walks every requested resource's archives, so
// between depot writes the repeat cost collapses to a map lookup.
func (s *Server) handleAvailability(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	contentType := "text/html; charset=utf-8"
	switch q.Get("format") {
	case "text":
		contentType = "text/plain; charset=utf-8"
	case "json":
		// Structured rows — the interchange the federated query tier
		// scatters and merges (see internal/query/federated.go).
		contentType = "application/json; charset=utf-8"
	}
	resources := q["resource"]
	if len(resources) == 0 {
		http.Error(w, "at least one resource parameter required", http.StatusBadRequest)
		return
	}
	var cats []agreement.Category
	for _, c := range q["category"] {
		cats = append(cats, agreement.Category(c))
	}
	if len(cats) == 0 {
		cats = append(agreement.Categories[:0:0], agreement.Categories...)
		cats = append(cats, "Total")
	}
	start, err := time.Parse(time.RFC3339, q.Get("start"))
	if err != nil {
		http.Error(w, "bad start: "+err.Error(), http.StatusBadRequest)
		return
	}
	end, err := time.Parse(time.RFC3339, q.Get("end"))
	if err != nil {
		http.Error(w, "bad end: "+err.Error(), http.StatusBadRequest)
		return
	}
	gen := s.d.CacheGeneration()
	tag := etagFor(gen)
	if s.checkNotModified(w, r, tag) {
		return
	}
	key := q.Encode()
	s.availMu.Lock()
	e, ok := s.avail[key]
	s.availMu.Unlock()
	if ok && e.gen == gen {
		s.availHits.Inc()
		s.writeAvailability(w, r, contentType, tag, e.body)
		return
	}
	page, err := consumer.BuildAvailabilityPage(s.d, "Availability overview", resources, cats, start, end)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var body []byte
	switch q.Get("format") {
	case "text":
		body = []byte(page.Text())
	case "json":
		if body, err = marshalAvailabilityPage(page); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	default:
		if body, err = page.HTML(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.availMisses.Inc()
	s.availMu.Lock()
	if len(s.avail) >= availMemoCap {
		s.avail = make(map[string]*availEntry)
	}
	s.avail[key] = &availEntry{gen: gen, body: body}
	s.availMu.Unlock()
	s.writeAvailability(w, r, contentType, tag, body)
}

func (s *Server) writeAvailability(w http.ResponseWriter, r *http.Request, contentType, tag string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("ETag", tag)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(body)
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

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec, err := s.d.StoreEnvelope(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/xml")
	xml.NewEncoder(w).Encode(xmlReceipt{
		Branch:     rec.Branch.String(),
		ReportSize: rec.ReportSize,
		CacheSize:  rec.CacheSize,
		UnpackNs:   rec.Unpack.Nanoseconds(),
		InsertNs:   rec.Insert.Nanoseconds(),
		ArchiveNs:  rec.Archive.Nanoseconds(),
		Added:      rec.Added,
	})
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

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var xp xmlPolicy
	if err := xml.Unmarshal(body, &xp); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, err := policyFromXML(xp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.d.AddPolicy(p); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusOK)
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

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	id, err := branch.Parse(r.URL.Query().Get("branch"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tag := etagFor(s.d.CacheGeneration())
	if s.checkNotModified(w, r, tag) {
		return
	}
	sub, ok, err := s.d.Cache().Query(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		s.queryMisses.Inc()
		http.Error(w, "no data at branch "+id.String(), http.StatusNotFound)
		return
	}
	s.queryHits.Inc()
	w.Header().Set("Content-Type", "text/xml")
	w.Header().Set("ETag", tag)
	w.Header().Set("Content-Length", strconv.Itoa(len(sub)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(sub)
}

// handleReports streams the report list: branch identifiers are escaped
// into one reused buffer (no per-identifier string allocation) and the
// pieces are written straight to the response — the exact Content-Length
// is known up front from the piece lengths, so no second full-response
// buffer is built.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	id, err := branch.Parse(r.URL.Query().Get("branch"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tag := etagFor(s.d.CacheGeneration())
	if s.checkNotModified(w, r, tag) {
		return
	}
	stored, err := s.d.Cache().Reports(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if len(stored) == 0 {
		s.queryMisses.Inc()
	} else {
		s.queryHits.Inc()
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
	w.Header().Set("Content-Type", "text/xml")
	w.Header().Set("ETag", tag)
	w.Header().Set("Content-Length", strconv.Itoa(total))
	if r.Method == http.MethodHead {
		return
	}
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

func (s *Server) archiveParams(r *http.Request) (branch.ID, string, rrd.CF, time.Time, time.Time, error) {
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

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	id, policy, cf, start, end, err := s.archiveParams(r)
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
	if gen, ok := s.d.ArchiveSeriesGeneration(id, policy); ok {
		tag = etagFor(gen)
		if s.checkNotModified(w, r, tag) {
			return
		}
	}
	series, err := s.d.FetchArchive(id, policy, cf, start, end)
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
	w.Header().Set("Content-Type", "text/csv")
	if tag != "" {
		w.Header().Set("ETag", tag)
	}
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(body.Bytes())
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	id, policy, cf, start, end, err := s.archiveParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	series, err := s.d.FetchArchive(id, policy, cf, start, end)
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

// xmlStats is the wire form of depot.Stats.
type xmlStats struct {
	XMLName    xml.Name `xml:"depotStats"`
	Received   uint64   `xml:"received,attr"`
	Bytes      uint64   `xml:"bytes,attr"`
	CacheSize  int      `xml:"cacheSize,attr"`
	CacheCount int      `xml:"cacheCount,attr"`
	Archives   int      `xml:"archives,attr"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.d.Stats()
	w.Header().Set("Content-Type", "text/xml")
	xml.NewEncoder(w).Encode(xmlStats{
		Received: st.Received, Bytes: st.Bytes,
		CacheSize: st.CacheSize, CacheCount: st.CacheCount, Archives: st.Archives,
	})
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
	ArchiveEnqueued     uint64 `json:"archive_enqueued"`
	ArchiveDropped      uint64 `json:"archive_dropped"`
	ArchiveBlocked      uint64 `json:"archive_blocked"`
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

// handleDebugVars serves the counters expvar-style, but self-rendered:
// the stdlib expvar package registers into a process-global map, which
// would collide when tests (or an embedding process) construct several
// servers.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	st := s.d.Stats()
	v := DebugVars{
		Received:            st.Received,
		Bytes:               st.Bytes,
		CacheSize:           st.CacheSize,
		CacheCount:          st.CacheCount,
		Archives:            st.Archives,
		Versioned:           true, // every cache has a generation; the key stays for readers of the page
		Generation:          s.d.CacheGeneration(),
		ArchiveGeneration:   s.d.ArchiveGeneration(),
		ArchiveMatched:      st.Archive.Matched,
		ArchiveEnqueued:     st.Archive.Enqueued,
		ArchiveDropped:      st.Archive.Dropped,
		ArchiveBlocked:      st.Archive.Blocked,
		ArchiveApplied:      st.Archive.Applied,
		QueryHits:           s.queryHits.Value(),
		QueryMisses:         s.queryMisses.Value(),
		ConditionalRequests: s.conditional.Value(),
		NotModified:         s.notModified.Value(),
		AvailabilityHits:    s.availHits.Value(),
		AvailabilityMisses:  s.availMisses.Value(),
	}
	if s.WireStats != nil {
		ws := s.WireStats()
		v.DeliveryWired = true
		v.DeliveryConnsAccepted = ws.ConnsAccepted
		v.DeliveryConnsIdleClosed = ws.ConnsIdleClosed
		v.DeliveryMessages = ws.Messages
		v.DeliveryBatches = ws.Batches
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
