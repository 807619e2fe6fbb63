// Package query implements Inca's web-service layer: the depot's store
// interface used by the centralized controller (paper Section 3.2.1) and
// the querying interface for data consumers (Section 3.2.3), which serves
// both current data from the cache (by branch identifier, or the whole
// cache when none is supplied) and archived time series.
//
// There is one handler set. Server parses requests and writes responses;
// a backend says where the bytes come from — the local depot (local.go)
// or the scatter-gather over a ring of shards (federated.go).
//
// The read side is cache-aware: /cache and /reports responses carry an
// ETag derived from the cache generation, and conditional requests
// (If-None-Match) short-circuit to 304 Not Modified before any cache work
// happens — the cheapest possible answer to the most common consumer poll
// ("anything new since last time?").
package query

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/feed"
	"inca/internal/metrics"
	"inca/internal/wire"
)

// Server is the querying interface over HTTP.
type Server struct {
	b     backend
	specs *SpecStore
	reg   *metrics.Registry // nil: instruments stay private, no /metrics route

	// WireStats, when set by the embedding process, surfaces the TCP
	// ingest server's connection/frame counters on /debug/vars as the
	// delivery_* group (e.g. qsrv.WireStats = wireSrv.Stats).
	WireStats func() wire.ServerStats

	// Pprof, when set before Handler is called, mounts the runtime
	// profiling endpoints under /debug/pprof/ (inca-server -pprof).
	Pprof bool

	// Feed, when set before Handler is called, is the change feed /feed
	// serves (and, when the feed evaluates an agreement, the status
	// snapshot on /summary). See NewFeed.
	Feed *Feed
}

// backend is where a Server's bytes come from. It answers in documents
// and errors; the Server owns the mux, the request parsing and every byte
// of the response.
type backend interface {
	// cache and reports are the /cache and /reports documents for the
	// subtree at id. inm is the client's If-None-Match: a validator that
	// still holds comes back as a notModified document, before any
	// document work.
	cache(id branch.ID, inm string) (document, error)
	reports(id branch.ID, inm string) (document, error)
	// availability is the page q asks for, rendered by q.
	availability(q *availQuery, inm string) (document, error)
	// stats is the depot's totals (summed over the shards on a router).
	stats() (xmlStats, error)
	// store and policy hand a POST body to the depot that must hold it and
	// return that depot's answer.
	store(envelope []byte) (document, error)
	policy(policyXML []byte) (document, error)
	// feed is the hub /feed subscribes to (the agreement status hub when
	// status is set) and the snapshot a subscriber catches up from.
	feed(status bool) (*feed.Hub, func(prefix branch.ID) ([]byte, error), error)
	// vars is the value /debug/vars renders.
	vars() any
	// routes are the endpoints only this tier has.
	routes() []route
}

// route is one mux entry; name labels its latency series.
type route struct {
	pattern, name string
	h             http.HandlerFunc
}

// NewServer wraps d.
func NewServer(d *depot.Depot) *Server {
	return NewServerMetrics(d, nil)
}

// NewServerMetrics is NewServer with the read-path instruments registered
// in reg and a Prometheus text endpoint mounted at /metrics. A nil reg
// keeps the instruments private and omits the route.
func NewServerMetrics(d *depot.Depot, reg *metrics.Registry) *Server {
	s := &Server{reg: reg}
	s.b = newLocal(s, d, reg)
	return s
}

// timed wraps a handler with the per-endpoint latency histogram
// inca_query_request_seconds{handler=name} on reg. Observation covers the
// full handler, 304s and errors included — the consumer-visible response
// time.
func timed(reg *metrics.Registry, name string, h http.HandlerFunc) http.HandlerFunc {
	hist := reg.Histogram("inca_query_request_seconds", "Query HTTP request latency by endpoint.", nil, "handler", name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.ObserveSince(start)
	}
}

// Handler returns the HTTP mux, every route timed. Both tiers serve:
//
//	POST /store       — envelope in the body; returns an XML receipt
//	POST /policy      — archival policy XML
//	GET  /cache       — ?branch= subtree (whole cache when omitted); ETag/304
//	GET  /reports     — ?branch= all reports under the prefix; ETag/304
//	GET  /archive     — ?branch=&policy=&cf=&start=&end= CSV series
//	GET  /graph       — same params plus &title=&ylabel=; ASCII plot
//	GET  /stats       — depot counters as XML
//	GET  /availability — VO-wide availability overview
//	GET  /feed        — SSE/long-poll change feed
//	                    (?branch=&cursor=&stream=&mode=&wait=)
//	GET  /debug/vars  — the tier's counters as JSON
//	GET  /metrics     — Prometheus text exposition (tiers built with a
//	                    registry only)
//
// A depot adds /spec, /summary (feeds evaluating an agreement only) and
// /debug/pprof/* (Pprof field set only); a router adds /shards and
// POST /federation/{join,leave,promote,replicate}.
func (s *Server) Handler() http.Handler {
	routes := append([]route{
		{"/store", "store", postOnly(s.handleStore)},
		{"/policy", "policy", postOnly(s.handlePolicy)},
		{"/cache", "cache", readOnly(s.handleCache)},
		{"/reports", "reports", readOnly(s.handleReports)},
		{"/availability", "availability", readOnly(s.handleAvailability)},
		{"/stats", "stats", readOnly(s.handleStats)},
		{"/debug/vars", "debug_vars", readOnly(s.handleDebugVars)},
		{"/feed", "feed", readOnly(s.handleFeed)},
	}, s.b.routes()...)
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, timed(s.reg, rt.name, rt.h))
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

// only admits the methods allow lists (an Allow header value) and refuses
// the rest with 405 and that header, naming the first.
func only(allow string, h http.HandlerFunc) http.HandlerFunc {
	methods := strings.Split(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range methods {
			if r.Method == m {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", allow)
		http.Error(w, methods[0]+" required", http.StatusMethodNotAllowed)
	}
}

// readOnly rejects anything but GET and HEAD on a read endpoint.
func readOnly(h http.HandlerFunc) http.HandlerFunc { return only("GET, HEAD", h) }

// postOnly rejects anything but POST on a write endpoint.
func postOnly(h http.HandlerFunc) http.HandlerFunc { return only("POST", h) }

// httpError is an error that names the status it is answered with; any
// other error from a backend is a 500.
type httpError struct {
	status int
	msg    string
}

func (e httpError) Error() string { return e.msg }

// document is one answer from a backend: a body of known length with the
// validator it is served under.
type document struct {
	status      int    // 0 is 200; a relayed answer keeps the depot's own
	contentType string // "" sets none
	tag         string // entity tag; "" sends none
	notModified bool   // the client's validator holds: 304 under tag, no body
	len         int
	write       func(io.Writer) // writes the len body bytes
	release     func()          // returns pooled bytes the body aliases; may be nil
}

// bytesDoc is a document whose body is one slice.
func bytesDoc(contentType, tag string, body []byte) document {
	return document{contentType: contentType, tag: tag, len: len(body), write: func(w io.Writer) { w.Write(body) }}
}

// fail answers with a backend's error under the status it names.
func fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he httpError
	if errors.As(err, &he) {
		status = he.status
	}
	http.Error(w, err.Error(), status)
}

// answer is the one writer of a backend's answer: the error, or the
// document's ETag, 304, Content-Length and a body that HEAD omits. A
// failed body write is the client gone; there is nobody to report it to.
func answer(w http.ResponseWriter, r *http.Request, d document, err error) {
	if err != nil {
		fail(w, err)
		return
	}
	if d.release != nil {
		defer d.release()
	}
	h := w.Header()
	if d.tag != "" {
		h.Set("ETag", d.tag)
	}
	if d.notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if d.contentType != "" {
		h.Set("Content-Type", d.contentType)
	}
	h.Set("Content-Length", strconv.Itoa(d.len))
	if d.status != 0 {
		w.WriteHeader(d.status)
	}
	if r.Method != http.MethodHead && d.write != nil {
		d.write(w)
	}
}

// etagFor renders a generation as a strong entity tag. Each endpoint has
// per-URL semantics, so the bare generation is a sufficient validator:
// equal generation implies a byte-identical cache, hence byte-identical
// responses.
func etagFor(gen uint64) string {
	return `"` + strconv.FormatUint(gen, 10) + `"`
}

// post reads a write request's body, at most limit bytes, and relays the
// answer of the depot it went to.
func post(w http.ResponseWriter, r *http.Request, limit int64, to func([]byte) (document, error)) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d, err := to(body)
	answer(w, r, d, err)
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	post(w, r, 32<<20, s.b.store)
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	post(w, r, 1<<20, s.b.policy)
}

// subtree answers a read addressed by ?branch= from the backend's document.
func subtree(w http.ResponseWriter, r *http.Request, read func(branch.ID, string) (document, error)) {
	id, err := branch.Parse(r.URL.Query().Get("branch"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d, err := read(id, r.Header.Get("If-None-Match"))
	answer(w, r, d, err)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	subtree(w, r, s.b.cache)
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	subtree(w, r, s.b.reports)
}

// availQuery is a parsed /availability request:
// ?resource=a&resource=b&category=Grid&start=&end=[&format=text|json].
type availQuery struct {
	values     url.Values // every parameter as sent
	resources  []string
	cats       []agreement.Category // all of them plus Total when none is named
	start, end time.Time
	format     string // "" is html
}

const availabilityTitle = "Availability overview"

func parseAvailability(r *http.Request) (*availQuery, error) {
	v := r.URL.Query()
	q := &availQuery{values: v, resources: v["resource"], format: v.Get("format")}
	if len(q.resources) == 0 {
		return nil, errors.New("at least one resource parameter required")
	}
	for _, c := range v["category"] {
		q.cats = append(q.cats, agreement.Category(c))
	}
	if len(q.cats) == 0 {
		q.cats = append(agreement.Categories[:0:0], agreement.Categories...)
		q.cats = append(q.cats, "Total")
	}
	var err error
	if q.start, err = time.Parse(time.RFC3339, v.Get("start")); err != nil {
		return nil, errors.New("bad start: " + err.Error())
	}
	if q.end, err = time.Parse(time.RFC3339, v.Get("end")); err != nil {
		return nil, errors.New("bad end: " + err.Error())
	}
	return q, nil
}

// render is the page in the requested format under tag. The json form is
// the structured rows a router scatters for and merges.
func (q *availQuery) render(page *consumer.AvailabilityPage, tag string) (document, error) {
	var body []byte
	var err error
	contentType := "text/html; charset=utf-8"
	switch q.format {
	case "text":
		contentType = "text/plain; charset=utf-8"
		body = []byte(page.Text())
	case "json":
		contentType = "application/json; charset=utf-8"
		body, err = marshalAvailabilityPage(page)
	default:
		body, err = page.HTML()
	}
	return bytesDoc(contentType, tag, body), err
}

// handleAvailability renders the VO-wide availability overview page.
func (s *Server) handleAvailability(w http.ResponseWriter, r *http.Request) {
	q, err := parseAvailability(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d, err := s.b.availability(q, r.Header.Get("If-None-Match"))
	answer(w, r, d, err)
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
	st, err := s.b.stats()
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/xml")
	xml.NewEncoder(w).Encode(st)
}

// writeJSON serves v indented, expvar-style but self-rendered: the stdlib
// expvar package registers into a process-global map, which would collide
// when tests (or an embedding process) construct several servers.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.b.vars())
}

// handleFeed serves GET /feed?branch=&cursor=[&stream=status][&mode=poll&wait=30s].
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	prefix, err := branch.Parse(q.Get("branch"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	status := false
	switch q.Get("stream") {
	case "", "changes":
	case "status":
		status = true
	default:
		http.Error(w, "unknown stream "+q.Get("stream"), http.StatusBadRequest)
		return
	}
	hub, snap, err := s.b.feed(status)
	if err != nil {
		fail(w, err)
		return
	}
	serveFeed(w, r, prefix, hub, func() ([]byte, error) { return snap(prefix) })
}
