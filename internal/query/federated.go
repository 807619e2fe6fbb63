package query

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/metrics"
	"inca/internal/wire"
)

// Federated is the scatter-gather query tier over a federation of depot
// shards: the Server's handler set, over a backend that answers by fanning
// requests across the shards behind a federation.Router and merging the
// responses back into the single-depot shape (DESIGN.md §5h).
//
// Conditional requests work end-to-end: each response's ETag composes
// the ring signature with every shard's own validator, a client's
// If-None-Match decomposes back into per-shard validators, and when every
// shard answers 304 the tier answers 304 — so an up-to-date consumer
// costs one integer comparison per shard and zero merge work. Requests
// at or below the ring's affinity depth skip the fan-out entirely and
// proxy to the one owning shard.
type Federated struct {
	srv    *Server // the handler set, with this tier as its backend
	router *federation.Router
	httpc  *http.Client
	// feedHTTP carries the /feed subscriptions. httpc's per-request timeout
	// would sever a healthy stream, and its read buffer is sized for a
	// batch: a burst of changes crosses the socket in one read.
	feedHTTP *http.Client
	// moved is closed and replaced at each membership change or promotion.
	moved atomic.Pointer[chan struct{}]

	fanouts     *metrics.Counter // requests scattered to every shard
	forwards    *metrics.Counter // requests proxied to the owning shard
	conditional *metrics.Counter // requests carrying a decomposable validator
	notModified *metrics.Counter // answered 304 (all shards unchanged)
	merges      *metrics.Counter // responses rebuilt by a document merge
	mergeScans  *metrics.Counter // merges that split a shard document by scan
	shardErrors *metrics.Counter // shard requests that failed in transport
	mergeTime   *metrics.Histogram
	mergeBytes  *metrics.Counter

	feedSubscribers *metrics.Gauge   // attached /feed subscribers
	feedRelayed     *metrics.Counter // changes relayed to them
	feedResyncs     *metrics.Counter // snapshots sent after a stream's first
}

// FederatedOptions configures NewFederated.
type FederatedOptions struct {
	// Metrics, when set, registers the tier's counters there and mounts
	// /metrics on the handler.
	Metrics *metrics.Registry
	// Pprof mounts the runtime profiling endpoints under /debug/pprof/
	// (inca-server -federate ... -pprof), as Server.Pprof does on a depot.
	Pprof bool
}

// scatterIdleConns is how many idle connections the tier keeps to each
// shard. Every concurrent reader holds one connection per shard for the
// length of a scatter; http.DefaultTransport keeps only two per host, so
// with more readers than that every further scatter re-dialled.
const scatterIdleConns = 64

// shardTimeout bounds each per-shard HTTP request.
const shardTimeout = 30 * time.Second

// NewFederated builds the query tier over router's shards. Close releases
// the connections it keeps to them.
func NewFederated(router *federation.Router, opt FederatedOptions) *Federated {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 0 // bounded per host, and the ring bounds the hosts
	transport.MaxIdleConnsPerHost = scatterIdleConns
	feedTransport := http.DefaultTransport.(*http.Transport).Clone()
	feedTransport.ReadBufferSize = wire.BatchBuffer
	reg := opt.Metrics
	f := &Federated{
		router:      router,
		httpc:       &http.Client{Timeout: shardTimeout, Transport: transport},
		feedHTTP:    &http.Client{Transport: feedTransport},
		fanouts:     reg.Counter("inca_federated_fanouts_total", "Requests scattered to every shard."),
		forwards:    reg.Counter("inca_federated_forwards_total", "Requests proxied to the single owning shard."),
		conditional: reg.Counter("inca_federated_conditional_total", "Requests carrying a composed validator."),
		notModified: reg.Counter("inca_federated_not_modified_total", "Requests answered 304 — every shard unchanged."),
		merges:      reg.Counter("inca_federated_merges_total", "Responses rebuilt by a cross-shard document merge."),
		mergeScans:  reg.Counter("inca_federated_merge_scans_total", "Merges in which a shard document came without a usable child index."),
		shardErrors: reg.Counter("inca_federated_shard_errors_total", "Per-shard requests failed in transport."),
		mergeTime:   reg.Histogram("inca_federated_merge_seconds", "Time to plan one cross-shard /cache or /reports merge.", nil),
		mergeBytes:  reg.Counter("inca_federated_merge_bytes_total", "Bytes of merged /cache and /reports documents planned."),

		feedSubscribers: reg.Gauge("inca_feed_subscribers", "Currently attached feed subscribers.", "feed", "federated"),
		feedRelayed:     reg.Counter("inca_feed_events_published_total", "Events published into the feed hub.", "feed", "federated"),
		feedResyncs:     reg.Counter("inca_feed_resyncs_total", "Subscribers demoted to snapshot-then-resubscribe.", "feed", "federated"),
	}
	f.srv = &Server{b: f, reg: reg, Pprof: opt.Pprof}
	moved := make(chan struct{})
	f.moved.Store(&moved)
	return f
}

// Close drops the idle connections the tier keeps to its shards.
func (f *Federated) Close() {
	f.httpc.CloseIdleConnections()
	f.feedHTTP.CloseIdleConnections()
}

// Handler returns the federated HTTP mux: the Server's handler set plus
// the router's own endpoints (see routes).
func (f *Federated) Handler() http.Handler { return f.srv.Handler() }

// routes are the router's own endpoints: /archive and /graph go to the
// shard owning the branch, /shards and /federation/* administer
// membership.
func (f *Federated) routes() []route {
	return []route{
		{"/archive", "archive", readOnly(f.handleForwarded)},
		{"/graph", "graph", readOnly(f.handleForwarded)},
		{"/shards", "shards", readOnly(f.handleShards)},
		{"/federation/join", "federation_join", postOnly(f.handleJoin)},
		{"/federation/leave", "federation_leave", postOnly(f.handleLeave)},
		{"/federation/promote", "federation_promote", postOnly(f.handlePromote)},
		{"/federation/replicate", "federation_replicate", postOnly(f.handleReplicate)},
	}
}

// badGateway is the error of a shard that failed the tier.
func badGateway(format string, args ...any) error {
	return httpError{http.StatusBadGateway, fmt.Sprintf(format, args...)}
}

// --- composed validators ---

// composeTag renders the federated entity tag: the ring signature (so a
// validator minted under one topology never matches another) followed by
// each shard's own validator in ring-member order. A shard that offered
// no validator contributes "-", which never matches a real one.
func composeTag(ringSig string, tags []string) string {
	n := len(`"f-"`) + len(ringSig) + 2*len(tags) // "-" or "." per tag
	for _, t := range tags {
		n += len(t)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(`"f`)
	b.WriteString(ringSig)
	b.WriteByte('-')
	for i, t := range tags {
		if i > 0 {
			b.WriteByte('.')
		}
		if t = strings.Trim(t, `"`); t == "" {
			t = "-"
		}
		b.WriteString(t)
	}
	b.WriteByte('"')
	return b.String()
}

// decomposeTag recovers per-shard validators from a client's
// If-None-Match header: nil when no candidate was minted under this ring
// signature with n shards. Returned entries are quoted shard tags, ""
// where the composed tag held a placeholder.
func decomposeTag(inm, ringSig string, n int) []string {
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.Trim(cand, `"`)
		rest, ok := strings.CutPrefix(cand, "f"+ringSig+"-")
		if !ok {
			continue
		}
		parts := strings.Split(rest, ".")
		if len(parts) != n {
			continue
		}
		out := make([]string, n)
		for i, p := range parts {
			if p != "-" && p != "" {
				out[i] = `"` + p + `"`
			}
		}
		return out
	}
	return nil
}

// --- per-shard fetch and scatter ---

type shardResp struct {
	shard  federation.Shard
	status int
	header http.Header
	body   []byte
	etag   string
	err    error
	buf    *[]byte // pooled backing of body; see release
}

// bodyPool recycles shard response bodies: a whole-cache read moves about
// a megabyte per shard, and without reuse every read is that much garbage.
var bodyPool sync.Pool

// readBody reads a shard response into a pooled buffer (readSized: sized
// from its Content-Length, which the shards always send).
func readBody(resp *http.Response) (body []byte, buf *[]byte, err error) {
	if resp.ContentLength == 0 {
		return nil, nil, nil
	}
	buf, _ = bodyPool.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	body, err = readSized(resp.Body, resp.ContentLength, *buf)
	if err != nil {
		bodyPool.Put(buf)
		return nil, nil, err
	}
	*buf = body[:cap(body)]
	return body, buf, nil
}

// release returns the response's body to the pool. The body — and any
// merge plan cut from it — must not be touched afterwards, so handlers
// release after their last Write returns (net/http has copied the bytes
// by then). A response that is never released is simply collected.
func (r *shardResp) release() {
	if r.buf != nil {
		bodyPool.Put(r.buf)
		r.buf, r.body = nil, nil
	}
}

func releaseAll(resps []shardResp) {
	for i := range resps {
		resps[i].release()
	}
}

// fetchShard asks the shard's primary: every read goes there, never to a
// follower. depth, when positive, asks /cache for its child index there.
func (f *Federated) fetchShard(ctx context.Context, s federation.Shard, path string, params url.Values, inm string, depth int) shardResp {
	base := s.BaseURL()
	if base == "" {
		return shardResp{shard: s, err: fmt.Errorf("shard %s has no querying interface", s.Name())}
	}
	u := base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return shardResp{shard: s, err: err}
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if depth > 0 {
		req.Header.Set(federation.DepthHeader, strconv.Itoa(depth))
	}
	return f.do(s, req)
}

// post sends body to a depot's write endpoint at base+path on behalf of
// shard s.
func (f *Federated) post(s federation.Shard, base, path string, body []byte) shardResp {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return shardResp{shard: s, err: err}
	}
	req.Header.Set("Content-Type", "text/xml")
	return f.do(s, req)
}

func (f *Federated) do(s federation.Shard, req *http.Request) shardResp {
	resp, err := f.httpc.Do(req)
	if err != nil {
		f.shardErrors.Inc()
		return shardResp{shard: s, err: err}
	}
	defer resp.Body.Close()
	body, buf, err := readBody(resp)
	if err != nil {
		f.shardErrors.Inc()
		return shardResp{shard: s, err: err}
	}
	return shardResp{
		shard:  s,
		status: resp.StatusCode,
		header: resp.Header,
		body:   body,
		etag:   resp.Header.Get("ETag"),
		buf:    buf,
	}
}

// relay is the shard's answer passed on as it came: status, type and
// body, no validator.
func (r *shardResp) relay() document {
	d := bytesDoc(r.header.Get("Content-Type"), "", r.body)
	d.status, d.release = r.status, r.release
	return d
}

// gather collects the bodies of the shards that answered 200. A shard
// answering absent (0: none may) holds nothing under the branch and
// contributes nothing; an unreachable shard or any other status fails the
// whole answer.
func gather(resps []shardResp, absent int) ([]federation.ShardDoc, error) {
	var docs []federation.ShardDoc
	for _, resp := range resps {
		switch {
		case resp.err != nil:
			return nil, badGateway("shard %s: %v", resp.shard.Name(), resp.err)
		case resp.status == http.StatusOK:
			docs = append(docs, federation.ShardDoc{Shard: resp.shard.Name(), Body: resp.body, Index: resp.header.Get(federation.IndexHeader)})
		case resp.status == absent:
		default:
			return nil, badGateway("shard %s: status %d: %s", resp.shard.Name(), resp.status, bytes.TrimSpace(resp.body))
		}
	}
	return docs, nil
}

// scatter fans one request to shards in parallel under ctx; perTags (when
// non-nil) supplies each shard's If-None-Match, and depth is fetchShard's.
func (f *Federated) scatter(ctx context.Context, shards []federation.Shard, path string, params url.Values, perTags []string, depth int) []shardResp {
	resps := make([]shardResp, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		inm := ""
		if perTags != nil {
			inm = perTags[i]
		}
		wg.Add(1)
		go func(i int, s federation.Shard, inm string) {
			defer wg.Done()
			resps[i] = f.fetchShard(ctx, s, path, params, inm, depth)
		}(i, s, inm)
	}
	wg.Wait()
	return resps
}

// scatterConditional is the conditional fan-out: round one revalidates
// each shard with its decomposed validator; if every shard answers 304
// the caller can answer 304 without touching a byte of data. Otherwise a
// second round fetches bodies from the shards that revalidated (their
// bytes are needed for the merge), and the composed tag is rebuilt from
// the validators actually served. The caller owns the returned responses —
// gather tells it whether a shard failed — and releases their bodies once
// it has written its answer; when none are returned they have been
// released here. Every request asks for the child index at depth.
func (f *Federated) scatterConditional(ctx context.Context, inm, path string, params url.Values, depth int) (resps []shardResp, composed string, unchanged bool) {
	shards := f.router.Shards()
	sig := f.router.Signature()
	perTags := decomposeTag(inm, sig, len(shards))
	if perTags != nil {
		f.conditional.Inc()
	}
	f.fanouts.Inc()
	resps = f.scatter(ctx, shards, path, params, perTags, depth)
	if perTags != nil {
		all, sawTag := true, false
		for i := range resps {
			switch {
			case resps[i].status == http.StatusNotModified:
				sawTag = true
			case perTags[i] == "" && resps[i].status == http.StatusNotFound:
				// The shard had no data at this branch when the tag was
				// composed (its part was the "-" placeholder) and still has
				// none: unchanged as far as the merge is concerned.
			default:
				all = false
			}
			if !all {
				break
			}
		}
		if all && sawTag {
			f.notModified.Inc()
			releaseAll(resps)
			return nil, composeTag(sig, perTags), true
		}
	}
	// Refetch the shards that revalidated — the merge needs their bodies.
	var wg sync.WaitGroup
	for i := range resps {
		if resps[i].status != http.StatusNotModified {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = f.fetchShard(ctx, resps[i].shard, path, params, "", depth)
		}(i)
	}
	wg.Wait()
	tags := make([]string, len(resps))
	for i := range resps {
		if resps[i].status == http.StatusOK {
			tags[i] = resps[i].etag
		}
	}
	return resps, composeTag(sig, tags), false
}

// --- owner forwarding (requests a single shard can answer) ---

// forwardOwner proxies the request to the shard owning id, re-wrapping
// the shard's validator in a composed tag so a topology change can never
// revalidate a stale answer.
func (f *Federated) forwardOwner(ctx context.Context, id branch.ID, path string, params url.Values, inm string) (document, error) {
	shard, ok := f.router.Owner(id)
	if !ok {
		return document{}, badGateway("no shard owns %s", id)
	}
	f.forwards.Inc()
	sig := f.router.Signature()
	perTags := decomposeTag(inm, sig, 1)
	shardTag := ""
	if perTags != nil {
		f.conditional.Inc()
		shardTag = perTags[0]
	}
	resp := f.fetchShard(ctx, shard, path, params, shardTag, 0)
	if resp.err != nil {
		return document{}, badGateway("shard %s: %v", shard.Name(), resp.err)
	}
	if resp.status == http.StatusNotModified {
		f.notModified.Inc()
		resp.release()
		return document{tag: composeTag(sig, perTags), notModified: true}, nil
	}
	d := resp.relay()
	if resp.status == http.StatusOK && resp.etag != "" {
		d.tag = composeTag(sig, []string{resp.etag})
	}
	return d, nil
}

// handleForwarded serves the endpoints whose branch parameter names a
// single owner regardless of depth (/archive, /graph: an archived series
// lives wholly on the shard owning its branch).
func (f *Federated) handleForwarded(w http.ResponseWriter, r *http.Request) {
	subtree(w, r, func(id branch.ID, inm string) (document, error) {
		return f.forwardOwner(context.TODO(), id, r.URL.Path, r.URL.Query(), inm)
	})
}

// --- scatter-gather reads ---

// scatterRead is how read gathers one endpoint from the shards.
type scatterRead struct {
	path   string
	absent int  // status of a shard that holds nothing under the branch (see gather)
	index  bool // the shards send their child index, and plan reads it
	plan   func(docs []federation.ShardDoc, id branch.ID, r *federation.Ring) (federation.Plan, error)
}

var (
	cacheRead   = scatterRead{"/cache", http.StatusNotFound, true, federation.PlanCache}
	reportsRead = scatterRead{"/reports", 0, false, func(docs []federation.ShardDoc, _ branch.ID, r *federation.Ring) (federation.Plan, error) {
		return federation.PlanReports(docs, r)
	}}
)

// read answers sr's endpoint at id: from its owner at or below the
// affinity depth, where the subtree has one (no fan-out, no merge), else
// by planning the merge of what every shard holds under it.
func (f *Federated) read(ctx context.Context, sr scatterRead, id branch.ID, inm string) (document, error) {
	params := url.Values{"branch": {id.String()}}
	ring := f.router.Ring()
	if !id.IsRoot() && id.Depth() >= ring.Depth() {
		return f.forwardOwner(ctx, id, sr.path, params, inm)
	}
	depth := 0
	if sr.index {
		depth = federation.IndexDepth(id, ring)
	}
	resps, tag, unchanged := f.scatterConditional(ctx, inm, sr.path, params, depth)
	if unchanged {
		return document{tag: tag, notModified: true}, nil
	}
	docs, err := gather(resps, sr.absent)
	if err == nil && len(docs) == 0 {
		err = httpError{http.StatusNotFound, "no data at branch " + id.String()}
	}
	if err != nil {
		releaseAll(resps)
		return document{}, err
	}
	// The merge runs under the tier's merge instruments; the plan aliases
	// the shard bodies, which go back to the pool once it is written.
	f.merges.Inc()
	start := time.Now()
	merged, err := sr.plan(docs, id, ring)
	f.mergeTime.ObserveSince(start)
	f.mergeBytes.Add(uint64(merged.Len))
	if merged.Scans > 0 {
		f.mergeScans.Inc()
	}
	if err != nil {
		releaseAll(resps)
		return document{}, badGateway("%v", err)
	}
	return document{
		contentType: "text/xml",
		tag:         tag,
		len:         merged.Len,
		write:       func(w io.Writer) { merged.WriteTo(w) },
		release:     func() { releaseAll(resps) },
	}, nil
}

// cache serves /cache; the router sends no child index of its own.
func (f *Federated) cache(id branch.ID, inm string, _ int) (document, error) {
	return f.read(context.TODO(), cacheRead, id, inm)
}

func (f *Federated) reports(id branch.ID, inm string) (document, error) {
	return f.read(context.TODO(), reportsRead, id, inm)
}

// availability scatters the overview as structured rows (format=json
// against each shard) and merges them into request order; the page then
// renders exactly as a single depot's would — each resource's
// availability archives live wholly on one shard, so the union of shard
// rows is the single-depot row set.
func (f *Federated) availability(q *availQuery, inm string) (document, error) {
	params := url.Values{}
	for k, v := range q.values {
		params[k] = v
	}
	params.Set("format", "json")
	resps, tag, unchanged := f.scatterConditional(context.TODO(), inm, "/availability", params, 0)
	if unchanged {
		return document{tag: tag, notModified: true}, nil
	}
	defer releaseAll(resps) // the rows below are decoded copies
	docs, err := gather(resps, 0)
	if err != nil {
		return document{}, err
	}
	// Merge rows in request order: resources outer, categories inner —
	// the order BuildAvailabilityPage emits. The first shard (in ring
	// order) with a row for the pair wins; duplicates only exist
	// transiently after a rebalance.
	type pair struct {
		res string
		cat agreement.Category
	}
	rows := make(map[pair]consumer.AvailabilityRow)
	for _, doc := range docs {
		page, err := unmarshalAvailabilityPage(doc.Body)
		if err != nil {
			return document{}, badGateway("shard %s: %v", doc.Shard, err)
		}
		for _, row := range page.Rows {
			key := pair{row.Resource, row.Category}
			if _, dup := rows[key]; !dup {
				rows[key] = row
			}
		}
	}
	page := &consumer.AvailabilityPage{Title: availabilityTitle, Start: q.start, End: q.end}
	for _, res := range q.resources {
		for _, cat := range q.cats {
			if row, ok := rows[pair{res, cat}]; ok {
				page.Rows = append(page.Rows, row)
			}
		}
	}
	f.merges.Inc()
	return q.render(page, tag)
}

// --- writes ---

// write posts body to path on shard s's primary and, when s has a
// follower, on the follower too, as the router tees the wire stream: a
// follower promoted in its primary's place must hold what the primary was
// given over HTTP as well, stored reports and archival policies alike. The
// answer is the primary's. A follower that cannot take the write (it is
// unreachable, has no querying interface, or refuses what its primary
// took) counts in the shard-error counter and never fails the answer.
func (f *Federated) write(s federation.Shard, path string, body []byte) shardResp {
	resp := f.post(s, s.BaseURL(), path, body)
	if !s.HasReplica() {
		return resp
	}
	base := s.ReplicaBaseURL()
	if base == "" {
		f.shardErrors.Inc()
		return resp
	}
	tee := f.post(s, base, path, body) // a transport failure counts in do
	if tee.err == nil && tee.status != http.StatusOK && resp.err == nil && resp.status == http.StatusOK {
		f.shardErrors.Inc()
	}
	tee.release()
	return resp
}

// store routes an envelope to the shard owning its address — the HTTP
// counterpart of the router's wire path.
func (f *Federated) store(env []byte) (document, error) {
	id, err := envelope.Address(env)
	if err != nil {
		return document{}, httpError{http.StatusBadRequest, err.Error()}
	}
	shard, ok := f.router.Owner(id)
	if !ok || shard.BaseURL() == "" {
		return document{}, badGateway("no shard owns %s", id)
	}
	resp := f.write(shard, "/store", env)
	if resp.err != nil {
		return document{}, badGateway("shard %s: %v", shard.Name(), resp.err)
	}
	return resp.relay(), nil
}

// policy broadcasts an archival policy to every shard and its follower —
// any shard may own branches the policy matches. The first refusal is the
// answer.
func (f *Federated) policy(policyXML []byte) (document, error) {
	for _, s := range f.router.Shards() {
		if s.BaseURL() == "" {
			return document{}, badGateway("shard %s has no querying interface", s.Name())
		}
		resp := f.write(s, "/policy", policyXML)
		if resp.err != nil {
			return document{}, badGateway("shard %s: %v", s.Name(), resp.err)
		}
		if resp.status != http.StatusOK {
			return resp.relay(), nil
		}
		resp.release()
	}
	return document{}, nil
}

// policies is the union of the shards' policy sets.
func (f *Federated) policies() (document, error) {
	set, err := f.policySet(f.router.Shards())
	if err != nil {
		return document{}, err
	}
	data, err := depot.MarshalPolicies(set)
	return bytesDoc("text/xml", "", data), err
}

// policySet is every policy the primaries of shards hold, each name once:
// the first shard's record of a name wins.
func (f *Federated) policySet(shards []federation.Shard) ([]depot.Policy, error) {
	resps := f.scatter(context.TODO(), shards, "/policy", nil, nil, 0)
	defer releaseAll(resps)
	docs, err := gather(resps, 0)
	if err != nil {
		return nil, err
	}
	var set []depot.Policy
	seen := make(map[string]bool)
	for _, doc := range docs {
		ps, err := depot.ParsePolicies(doc.Body)
		if err != nil {
			return nil, badGateway("shard %s: %v", doc.Shard, err)
		}
		for _, p := range ps {
			if !seen[p.Name] {
				seen[p.Name] = true
				set = append(set, p)
			}
		}
	}
	return set, nil
}

// transfer moves state from the depots srcs, the one routine of a join, a
// graceful leave and a follower's catch-up. Each source's slice (GET
// /slice) is fetched once and split by to, which names a branch's
// destination (false: the branch stays); each destination is posted its
// part — the source's policies, then its branches' archives and reports —
// through postSlice.
func (f *Federated) transfer(srcs []federation.Shard, to func(branch.ID) (federation.Shard, bool)) (depot.SliceResult, error) {
	var moved depot.SliceResult
	for _, src := range srcs {
		resp := f.fetchShard(context.TODO(), src, "/slice", nil, "", 0)
		docs, err := gather([]shardResp{resp}, 0)
		dsts := make(map[string]federation.Shard)
		var parts map[string][]byte
		if err == nil {
			parts, err = depot.SplitSlice(docs[0].Body, func(id branch.ID) string {
				if dst, ok := to(id); ok {
					dsts[dst.Name()] = dst
					return dst.Name()
				}
				return ""
			})
		}
		resp.release()
		if err != nil {
			return moved, badGateway("%s slice: %v", src.Name(), err)
		}
		for name, part := range parts {
			if err := f.postSlice(dsts[name], part, &moved); err != nil {
				return moved, err
			}
		}
	}
	return moved, nil
}

// sendPolicies posts dst a slice of every policy srcs hold, when they hold
// any: what a joining shard takes before it owns a branch, and a follower
// before its tee starts.
func (f *Federated) sendPolicies(srcs []federation.Shard, dst federation.Shard) error {
	set, err := f.policySet(srcs)
	if err != nil || len(set) == 0 {
		return err
	}
	body, err := depot.PolicySlice(set)
	if err != nil {
		return err
	}
	return f.postSlice(dst, body, new(depot.SliceResult))
}

// postSlice posts a slice to dst, and to its follower, through write, and
// adds what dst did with it to moved.
func (f *Federated) postSlice(dst federation.Shard, body []byte, moved *depot.SliceResult) error {
	resp := f.write(dst, "/slice", body)
	defer resp.release()
	if resp.err == nil && resp.status != http.StatusOK {
		resp.err = fmt.Errorf("status %d: %s", resp.status, bytes.TrimSpace(resp.body))
	}
	var got depot.SliceResult
	if resp.err == nil {
		resp.err = xml.Unmarshal(resp.body, &got)
	}
	if resp.err != nil {
		return badGateway("slice to %s: %v", dst.Name(), resp.err)
	}
	moved.Add(got)
	return nil
}

// --- aggregates and administration ---

func (f *Federated) stats() (xmlStats, error) {
	var total xmlStats
	resps := f.scatter(context.TODO(), f.router.Shards(), "/stats", nil, nil, 0)
	defer releaseAll(resps)
	docs, err := gather(resps, 0)
	if err != nil {
		return total, err
	}
	for _, doc := range docs {
		var xs xmlStats
		if err := xml.Unmarshal(doc.Body, &xs); err != nil {
			return total, badGateway("shard %s: %v", doc.Shard, err)
		}
		total.Received += xs.Received
		total.Bytes += xs.Bytes
		total.CacheSize += xs.CacheSize
		total.CacheCount += xs.CacheCount
		total.Archives += xs.Archives
	}
	return total, nil
}

// shardTopology is the JSON shape of /shards.
type shardTopology struct {
	Signature    string      `json:"signature"`
	Depth        int         `json:"depth"`
	Replicas     int         `json:"replicas"`
	ReplicaEpoch uint64      `json:"replica_epoch"`
	Shards       []shardSpec `json:"shards"`
}

type shardSpec struct {
	Name        string `json:"name"`
	Wire        string `json:"wire"`
	HTTP        string `json:"http"`
	ReplicaWire string `json:"replica_wire,omitempty"`
	ReplicaHTTP string `json:"replica_http,omitempty"`
}

func (f *Federated) handleShards(w http.ResponseWriter, r *http.Request) {
	ring := f.router.Ring()
	top := shardTopology{Signature: ring.Signature(), Depth: ring.Depth(), Replicas: ring.Replicas(), ReplicaEpoch: f.router.Epoch()}
	for _, s := range f.router.Shards() {
		top.Shards = append(top.Shards, shardSpec{Name: s.Name(), Wire: s.Wire, HTTP: s.HTTP, ReplicaWire: s.ReplicaWire, ReplicaHTTP: s.ReplicaHTTP})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(top)
}

// handleJoin adds a shard: POST /federation/join?shard=wire/http[&migrate=1].
// The new shard (and its follower, when the spec names one) is first sent
// every archival policy the federation holds, so it archives the branches
// it comes to own from their first report; with migrate=1 it then takes
// the part of every shard's slice it claims. Both happen before the ring
// flips (a join that fails either does not move it), so reads stay
// complete; copies the old owners keep are masked by the merge's
// owner-wins rule.
func (f *Federated) handleJoin(w http.ResponseWriter, r *http.Request) {
	s, err := federation.ParseShard(r.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := f.sendPolicies(f.router.Shards(), s); err != nil {
		fail(w, err)
		return
	}
	var moved depot.SliceResult
	if r.URL.Query().Get("migrate") == "1" {
		target := f.router.Ring().With(s.Name())
		moved, err = f.transfer(f.router.Shards(), func(id branch.ID) (federation.Shard, bool) {
			return s, target.Owner(id) == s.Name()
		})
		if err != nil {
			fail(w, err)
			return
		}
	}
	if err := f.router.Join(s); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	f.topologyMoved()
	fmt.Fprintf(w, "joined %s (migrated %s)\n", s.Name(), moved)
}

// handleLeave removes a shard: POST /federation/leave?shard=wire[&migrate=1][&promote=0].
// An unknown shard is 404. A shard with a follower fails over instead:
// the follower, holding what the tee and any catch-up gave it, is promoted
// in place (the ring does not move) and the dead primary's queue
// redelivers to it; promote=0 forces a real departure. With migrate=1 the
// departure is graceful: the router drains its queue to the shard, sends
// the shard's slice to the new owners of its branches, and only then
// flips the ring. Without migrate (the shard is dead) every undelivered
// message is harvested and re-routed, so no accepted report is lost,
// though data only the dead shard stored is gone until reporters re-send.
// Any re-route loss is reported, never silent.
func (f *Federated) handleLeave(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("shard")
	if name == "" {
		http.Error(w, "shard parameter required", http.StatusBadRequest)
		return
	}
	leaving, known := f.router.Shard(name)
	if !known {
		http.Error(w, "unknown shard "+name, http.StatusNotFound)
		return
	}
	if leaving.HasReplica() && r.URL.Query().Get("promote") != "0" {
		f.promote(w, name)
		return
	}
	var moved depot.SliceResult
	if r.URL.Query().Get("migrate") == "1" {
		if err := f.router.DrainShard(name); err != nil {
			http.Error(w, "drain "+name+": "+err.Error(), http.StatusBadGateway)
			return
		}
		target := f.router.Ring().Without(name)
		var err error
		moved, err = f.transfer([]federation.Shard{leaving}, func(id branch.ID) (federation.Shard, bool) {
			return f.router.Shard(target.Owner(id))
		})
		if err != nil {
			fail(w, err)
			return
		}
	}
	requeued, lost, err := f.router.Leave(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	f.topologyMoved()
	fmt.Fprintf(w, "left %s (migrated %s, re-routed %d queued messages, lost %d)\n", name, moved, requeued, lost)
}

// promote fails a shard over to its follower. The promoted process serves
// a cursor space of its own under the new replica epoch, so feed
// subscribers start over as after a membership change.
func (f *Federated) promote(w http.ResponseWriter, name string) {
	s, moved, err := f.router.Promote(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	f.topologyMoved()
	fmt.Fprintf(w, "promoted follower %s for shard %s (re-enqueued %d queued messages)\n", s.Wire, name, moved)
}

// handlePromote fails a shard over to its follower without waiting for a
// leave: POST /federation/promote?shard=name. The ring does not move;
// the slice's reads and ingest switch to the follower process.
func (f *Federated) handlePromote(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("shard")
	if name == "" {
		http.Error(w, "shard parameter required", http.StatusBadRequest)
		return
	}
	f.promote(w, name)
}

// handleReplicate attaches a follower to a running shard:
// POST /federation/replicate?shard=name&follower=wire[/http][&catchup=1].
// A follower with a querying interface is first sent its primary's
// archival policies (the attach fails when it cannot take them), so it
// archives from the first report the tee sends it. With catchup=1 the
// primary's slice follows the tee's start, so a late follower holds the
// primary's history, archives included; an archive the tee has taken past
// the primary's image stays the follower's own and counts as kept
// (DESIGN.md §5e); the same request again runs the catch-up again, which
// installs a newer image. Only another follower is refused (409). Reads
// stay on the primary, so neither the attach nor a failed catch-up
// touches a validator or a feed subscription.
func (f *Federated) handleReplicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("shard")
	if name == "" {
		http.Error(w, "shard parameter required", http.StatusBadRequest)
		return
	}
	fw, fh, _ := strings.Cut(q.Get("follower"), "/")
	if fw == "" {
		http.Error(w, "follower parameter required (wire[/http])", http.StatusBadRequest)
		return
	}
	// The follower as a depot of its own: writes to it reach it alone.
	follower := federation.Shard{Wire: fw, HTTP: fh}
	s, ok := f.router.Shard(name)
	if ok && follower.BaseURL() != "" {
		if err := f.sendPolicies([]federation.Shard{s}, follower); err != nil {
			http.Error(w, "follower policies: "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	if err := f.router.AttachReplica(name, fw, fh); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	var moved depot.SliceResult
	if q.Get("catchup") == "1" {
		var err error
		if follower.BaseURL() == "" {
			err = fmt.Errorf("follower of %s has no querying interface for catch-up", name)
		} else {
			moved, err = f.transfer([]federation.Shard{s}, func(branch.ID) (federation.Shard, bool) { return follower, true })
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("follower attached but catch-up failed after %s: %v", moved, err), http.StatusBadGateway)
			return
		}
	}
	fmt.Fprintf(w, "replicating %s to %s (caught up %s)\n", name, fw, moved)
}

// --- availability page JSON codec ---

// nanFloat marshals NaN as null (encoding/json rejects NaN outright);
// rows for never-sampled series carry NaN minima.
type nanFloat float64

func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

func (f *nanFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = nanFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = nanFloat(v)
	return nil
}

type availPageJSON struct {
	Title string         `json:"title"`
	Start time.Time      `json:"start"`
	End   time.Time      `json:"end"`
	Rows  []availRowJSON `json:"rows"`
}

type availRowJSON struct {
	Resource string   `json:"resource"`
	Category string   `json:"category"`
	Spark    string   `json:"spark"`
	Mean     nanFloat `json:"mean"`
	Min      nanFloat `json:"min"`
	Samples  int      `json:"samples"`
}

// marshalAvailabilityPage renders the structured row form served by
// /availability?format=json — the shard-to-tier interchange the federated
// merge is built on.
func marshalAvailabilityPage(p *consumer.AvailabilityPage) ([]byte, error) {
	out := availPageJSON{Title: p.Title, Start: p.Start, End: p.End}
	for _, r := range p.Rows {
		out.Rows = append(out.Rows, availRowJSON{
			Resource: r.Resource,
			Category: string(r.Category),
			Spark:    r.Spark,
			Mean:     nanFloat(r.Mean),
			Min:      nanFloat(r.Min),
			Samples:  r.Samples,
		})
	}
	return json.Marshal(out)
}

func unmarshalAvailabilityPage(data []byte) (*consumer.AvailabilityPage, error) {
	var in availPageJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("bad availability json: %w", err)
	}
	p := &consumer.AvailabilityPage{Title: in.Title, Start: in.Start, End: in.End}
	for _, r := range in.Rows {
		p.Rows = append(p.Rows, consumer.AvailabilityRow{
			Resource: r.Resource,
			Category: agreement.Category(r.Category),
			Spark:    r.Spark,
			Mean:     float64(r.Mean),
			Min:      float64(r.Min),
			Samples:  r.Samples,
		})
	}
	return p, nil
}
