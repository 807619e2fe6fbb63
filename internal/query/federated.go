package query

import (
	"bytes"
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
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/metrics"
)

// Federated is the scatter-gather query tier over a federation of depot
// shards: the Server's handler set, over a backend that answers by fanning
// requests across the shards behind a federation.Router and merging the
// responses back into the single-depot shape (DESIGN.md §5f).
//
// Conditional requests work end-to-end: each response's ETag composes
// the ring signature with every shard's own validator, a client's
// If-None-Match decomposes back into per-shard validators, and when every
// shard answers 304 the tier answers 304 — so an up-to-date consumer
// costs one integer comparison per shard and zero merge work. Requests
// at or below the ring's affinity depth skip the fan-out entirely and
// proxy to the one owning shard.
type Federated struct {
	srv            *Server // the handler set, with this tier as its backend
	router         *federation.Router
	httpc          *http.Client
	transport      *http.Transport // the tier's own, nil when the caller supplied the client
	ff             *FederatedFeed  // composed change feed; set by AttachFeed
	preferFollower bool

	fanouts     *metrics.Counter // requests scattered to every shard
	forwards    *metrics.Counter // requests proxied to the owning shard
	conditional *metrics.Counter // requests carrying a decomposable validator
	notModified *metrics.Counter // answered 304 (all shards unchanged)
	merges      *metrics.Counter // responses rebuilt by a document merge
	shardErrors *metrics.Counter // shard requests that failed in transport
	mergeTime   *metrics.Histogram
	mergeBytes  *metrics.Counter

	followerReads       *metrics.Counter // read requests served by a follower
	followerFallbacks   *metrics.Counter // follower unreachable; primary answered
	followerRegressions *metrics.Counter // follower behind the client's validator; primary answered
}

// FederatedOptions configures NewFederated.
type FederatedOptions struct {
	// Timeout bounds each per-shard HTTP request (default 30s).
	Timeout time.Duration
	// Client overrides the HTTP transport (Timeout is ignored then).
	Client *http.Client
	// Metrics, when set, registers the tier's counters there and mounts
	// /metrics on the handler.
	Metrics *metrics.Registry
	// Pprof mounts the runtime profiling endpoints under /debug/pprof/
	// (inca-server -federate ... -pprof), as Server.Pprof does on a depot.
	Pprof bool
	// PreferFollower sends read requests to a shard's follower when one
	// is attached, offloading the primary. Staleness is bounded by the
	// generation gate: a follower answering with a generation behind the
	// client's own validator is discarded and the primary asked instead,
	// so a consumer's view never moves backwards; replication-epoch
	// composed ETags keep promotion/attach from falsely revalidating.
	PreferFollower bool
}

// scatterIdleConns is how many idle connections the tier keeps to each
// shard. Every concurrent reader holds one connection per shard for the
// length of a scatter; http.DefaultTransport keeps only two per host, so
// with more readers than that every further scatter re-dialled.
const scatterIdleConns = 64

// NewFederated builds the query tier over router's shards. Close releases
// the connections it keeps to them.
func NewFederated(router *federation.Router, opt FederatedOptions) *Federated {
	httpc := opt.Client
	var transport *http.Transport
	if httpc == nil {
		to := opt.Timeout
		if to <= 0 {
			to = 30 * time.Second
		}
		transport = http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConns = 0 // bounded per host, and the ring bounds the hosts
		transport.MaxIdleConnsPerHost = scatterIdleConns
		httpc = &http.Client{Timeout: to, Transport: transport}
	}
	reg := opt.Metrics
	f := &Federated{
		router:         router,
		httpc:          httpc,
		transport:      transport,
		preferFollower: opt.PreferFollower,
		fanouts:        reg.Counter("inca_federated_fanouts_total", "Requests scattered to every shard."),
		forwards:       reg.Counter("inca_federated_forwards_total", "Requests proxied to the single owning shard."),
		conditional:    reg.Counter("inca_federated_conditional_total", "Requests carrying a composed validator."),
		notModified:    reg.Counter("inca_federated_not_modified_total", "Requests answered 304 — every shard unchanged."),
		merges:         reg.Counter("inca_federated_merges_total", "Responses rebuilt by a cross-shard document merge."),
		shardErrors:    reg.Counter("inca_federated_shard_errors_total", "Per-shard requests failed in transport."),
		mergeTime:      reg.Histogram("inca_federated_merge_seconds", "Time to plan one cross-shard /cache or /reports merge.", nil),
		mergeBytes:     reg.Counter("inca_federated_merge_bytes_total", "Bytes of merged /cache and /reports documents planned."),

		followerReads:       reg.Counter("inca_federated_follower_reads_total", "Read requests served by a shard's follower."),
		followerFallbacks:   reg.Counter("inca_federated_follower_fallbacks_total", "Follower reads that fell back to the primary on a transport error."),
		followerRegressions: reg.Counter("inca_federated_follower_regressions_total", "Follower reads discarded by the generation gate — the follower was behind the client's validator."),
	}
	f.srv = &Server{b: f, reg: reg, Pprof: opt.Pprof}
	return f
}

// Close drops the idle connections the tier keeps to its shards. A tier
// built over a caller's Client leaves that client alone.
func (f *Federated) Close() {
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
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
	parts := make([]string, len(tags))
	for i, t := range tags {
		t = strings.Trim(t, `"`)
		if t == "" {
			t = "-"
		}
		parts[i] = t
	}
	return `"f` + ringSig + "-" + strings.Join(parts, ".") + `"`
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

// readBody reads a shard response into a pooled buffer sized from its
// Content-Length (the shards always send one; a body of unknown length
// grows the buffer as it arrives).
func readBody(resp *http.Response) (body []byte, buf *[]byte, err error) {
	n := resp.ContentLength
	if n == 0 {
		return nil, nil, nil
	}
	buf, _ = bodyPool.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if n > 0 {
		if int64(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		body = (*buf)[:n]
		_, err = io.ReadFull(resp.Body, body)
	} else {
		b := bytes.NewBuffer((*buf)[:0])
		_, err = b.ReadFrom(resp.Body)
		body = b.Bytes()
	}
	*buf = body[:cap(body)]
	if err != nil {
		bodyPool.Put(buf)
		return nil, nil, err
	}
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

// fetchShard asks the shard's primary — the authoritative replica.
func (f *Federated) fetchShard(s federation.Shard, path string, params url.Values, inm string) shardResp {
	return f.fetchURL(s, s.BaseURL(), path, params, inm)
}

// tagGen extracts the numeric generation from a shard validator (the
// shards mint bare-generation ETags, see etagFor).
func tagGen(tag string) (uint64, bool) {
	tag = strings.Trim(strings.TrimSpace(tag), `"`)
	if tag == "" {
		return 0, false
	}
	g, err := strconv.ParseUint(tag, 10, 64)
	return g, err == nil
}

// fetchShardRead is fetchShard with follower read preference: when the
// tier prefers followers and the shard has one with a querying
// interface, the follower answers instead of the primary. Two guards
// bound what a follower may serve: a transport error falls back to the
// primary (availability), and a 200 whose generation is behind the
// client's own validator is discarded for the primary's answer — the
// generation gate that keeps a lagging follower from moving a consumer
// backwards in time. A follower 304 needs no gate: it means the
// follower's current generation equals the validator the client already
// holds.
func (f *Federated) fetchShardRead(s federation.Shard, path string, params url.Values, inm string) shardResp {
	base := ""
	if f.preferFollower {
		base = s.ReplicaBaseURL()
	}
	if base == "" {
		return f.fetchShard(s, path, params, inm)
	}
	resp := f.fetchURL(s, base, path, params, inm)
	if resp.err != nil {
		f.followerFallbacks.Inc()
		return f.fetchShard(s, path, params, inm)
	}
	if resp.status == http.StatusOK && inm != "" {
		if seen, ok := tagGen(inm); ok {
			if got, ok2 := tagGen(resp.etag); ok2 && got < seen {
				f.followerRegressions.Inc()
				resp.release()
				return f.fetchShard(s, path, params, inm)
			}
		}
	}
	f.followerReads.Inc()
	return resp
}

func (f *Federated) fetchURL(s federation.Shard, base, path string, params url.Values, inm string) shardResp {
	if base == "" {
		return shardResp{shard: s, err: fmt.Errorf("shard %s has no querying interface", s.Name())}
	}
	u := base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return shardResp{shard: s, err: err}
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
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
			docs = append(docs, federation.ShardDoc{Shard: resp.shard.Name(), Body: resp.body})
		case resp.status == absent:
		default:
			return nil, badGateway("shard %s: status %d: %s", resp.shard.Name(), resp.status, bytes.TrimSpace(resp.body))
		}
	}
	return docs, nil
}

// scatter fans one request to shards in parallel; perTags (when non-nil)
// supplies each shard's If-None-Match. With read set the fan-out honours
// follower read preference; admin and snapshot scatters keep hitting the
// primaries.
func (f *Federated) scatter(shards []federation.Shard, path string, params url.Values, perTags []string, read bool) []shardResp {
	resps := make([]shardResp, len(shards))
	fetch := f.fetchShard
	if read {
		fetch = f.fetchShardRead
	}
	var wg sync.WaitGroup
	for i, s := range shards {
		inm := ""
		if perTags != nil {
			inm = perTags[i]
		}
		wg.Add(1)
		go func(i int, s federation.Shard, inm string) {
			defer wg.Done()
			resps[i] = fetch(s, path, params, inm)
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
// released here.
func (f *Federated) scatterConditional(inm, path string, params url.Values) (resps []shardResp, composed string, unchanged bool) {
	shards := f.router.Shards()
	sig := f.router.Signature()
	perTags := decomposeTag(inm, sig, len(shards))
	if perTags != nil {
		f.conditional.Inc()
	}
	f.fanouts.Inc()
	resps = f.scatter(shards, path, params, perTags, true)
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
			resps[i] = f.fetchShardRead(resps[i].shard, path, params, "")
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
func (f *Federated) forwardOwner(id branch.ID, path string, params url.Values, inm string) (document, error) {
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
	resp := f.fetchShardRead(shard, path, params, shardTag)
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
		return f.forwardOwner(id, r.URL.Path, r.URL.Query(), inm)
	})
}

// --- scatter-gather reads ---

// read answers /cache or /reports at id: from its owner at or below the
// affinity depth, where the subtree has one (no fan-out, no merge), else
// by planning the merge of what every shard holds under it. absent is the
// status of a shard that holds nothing there (see gather).
func (f *Federated) read(path string, id branch.ID, inm string, absent int, plan func([]federation.ShardDoc, *federation.Ring) (federation.Plan, error)) (document, error) {
	params := url.Values{"branch": {id.String()}}
	ring := f.router.Ring()
	if !id.IsRoot() && id.Depth() >= ring.Depth() {
		return f.forwardOwner(id, path, params, inm)
	}
	resps, tag, unchanged := f.scatterConditional(inm, path, params)
	if unchanged {
		return document{tag: tag, notModified: true}, nil
	}
	docs, err := gather(resps, absent)
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
	merged, err := plan(docs, ring)
	f.mergeTime.ObserveSince(start)
	f.mergeBytes.Add(uint64(merged.Len))
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

func (f *Federated) cache(id branch.ID, inm string) (document, error) {
	return f.read("/cache", id, inm, http.StatusNotFound, func(docs []federation.ShardDoc, ring *federation.Ring) (federation.Plan, error) {
		return federation.PlanCache(docs, id, ring)
	})
}

func (f *Federated) reports(id branch.ID, inm string) (document, error) {
	return f.read("/reports", id, inm, 0, federation.PlanReports)
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
	resps, tag, unchanged := f.scatterConditional(inm, "/availability", params)
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
	resp := f.post(shard, shard.BaseURL(), "/store", env)
	if resp.err != nil {
		return document{}, badGateway("shard %s: %v", shard.Name(), resp.err)
	}
	return resp.relay(), nil
}

// policy broadcasts an archival policy to every shard — any shard may own
// branches the policy matches. The first refusal is the answer.
func (f *Federated) policy(policyXML []byte) (document, error) {
	for _, s := range f.router.Shards() {
		if s.BaseURL() == "" {
			return document{}, badGateway("shard %s has no querying interface", s.Name())
		}
		resp := f.post(s, s.BaseURL(), "/policy", policyXML)
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

// --- aggregates and administration ---

func (f *Federated) stats() (xmlStats, error) {
	var total xmlStats
	resps := f.scatter(f.router.Shards(), "/stats", nil, nil, false)
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

// FederatedVars is the JSON shape of the router's /debug/vars.
type FederatedVars struct {
	Shards         int    `json:"shards"`
	RingDepth      int    `json:"ring_depth"`
	RingReplicas   int    `json:"ring_replicas"`
	RingSignature  string `json:"ring_signature"`
	ReplicaEpoch   uint64 `json:"replica_epoch"`
	Routed         uint64 `json:"routed"`
	Rerouted       uint64 `json:"rerouted"`
	Unroutable     uint64 `json:"unroutable"`
	Refused        uint64 `json:"refused"`
	RerouteDropped uint64 `json:"reroute_dropped"`
	ReplicaShed    uint64 `json:"replica_shed"`
	Promotions     uint64 `json:"promotions"`

	Fanouts             uint64 `json:"fanouts"`
	Forwards            uint64 `json:"forwards"`
	ConditionalRequests uint64 `json:"conditional_requests"`
	NotModified         uint64 `json:"not_modified"`
	Merges              uint64 `json:"merges"`
	ShardErrors         uint64 `json:"shard_errors"`

	FollowerReads       uint64 `json:"follower_reads"`
	FollowerFallbacks   uint64 `json:"follower_fallbacks"`
	FollowerRegressions uint64 `json:"follower_regressions"`

	PerShard []FederatedShardVars `json:"per_shard"`
}

// FederatedShardVars is one shard's delivery accounting on /debug/vars.
// The replica_* group mirrors the primary counters for the follower tee
// and is present only when a follower is attached.
type FederatedShardVars struct {
	Name     string `json:"name"`
	Wire     string `json:"wire"`
	HTTP     string `json:"http"`
	Acked    uint64 `json:"acked"`
	Rejected uint64 `json:"rejected"`
	Requeued uint64 `json:"requeued"`
	Dropped  uint64 `json:"dropped"`
	Redials  uint64 `json:"redials"`

	ReplicaWire     string `json:"replica_wire,omitempty"`
	ReplicaHTTP     string `json:"replica_http,omitempty"`
	ReplicaAcked    uint64 `json:"replica_acked,omitempty"`
	ReplicaRequeued uint64 `json:"replica_requeued,omitempty"`
	ReplicaDropped  uint64 `json:"replica_dropped,omitempty"`
}

func (f *Federated) vars() any {
	ring := f.router.Ring()
	st := f.router.Stats()
	v := FederatedVars{
		Shards:              ring.Size(),
		RingDepth:           ring.Depth(),
		RingReplicas:        ring.Replicas(),
		RingSignature:       ring.Signature(),
		ReplicaEpoch:        st.Epoch,
		Routed:              st.Routed,
		Rerouted:            st.Rerouted,
		Unroutable:          st.Unroutable,
		Refused:             st.Refused,
		RerouteDropped:      st.RerouteDropped,
		ReplicaShed:         st.ReplicaShed,
		Promotions:          st.Promotions,
		Fanouts:             f.fanouts.Value(),
		Forwards:            f.forwards.Value(),
		ConditionalRequests: f.conditional.Value(),
		NotModified:         f.notModified.Value(),
		Merges:              f.merges.Value(),
		ShardErrors:         f.shardErrors.Value(),
		FollowerReads:       f.followerReads.Value(),
		FollowerFallbacks:   f.followerFallbacks.Value(),
		FollowerRegressions: f.followerRegressions.Value(),
	}
	for _, ss := range st.Shards {
		sv := FederatedShardVars{
			Name:     ss.Shard.Name(),
			Wire:     ss.Shard.Wire,
			HTTP:     ss.Shard.HTTP,
			Acked:    ss.Batch.Acked,
			Rejected: ss.Batch.Rejected,
			Requeued: ss.Batch.Requeued,
			Dropped:  ss.Batch.Dropped,
			Redials:  ss.Batch.Redials,
		}
		if ss.HasReplica {
			sv.ReplicaWire = ss.Shard.ReplicaWire
			sv.ReplicaHTTP = ss.Shard.ReplicaHTTP
			sv.ReplicaAcked = ss.Replica.Acked
			sv.ReplicaRequeued = ss.Replica.Requeued
			sv.ReplicaDropped = ss.Replica.Dropped
		}
		v.PerShard = append(v.PerShard, sv)
	}
	return v
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
	writeJSON(w, top)
}

// handleJoin adds a shard: POST /federation/join?shard=wire/http[&migrate=1].
// With migrate=1 the ranges the new member claims are copied over before
// the ring flips, so reads stay complete throughout; copies the old
// owners keep are masked by the merge's owner-wins rule. The copy is a
// best-effort snapshot — reports ingested for a moved range mid-copy
// reach the new owner on the reporter's next cycle (the cache keeps
// latest-per-branch, so convergence is automatic).
func (f *Federated) handleJoin(w http.ResponseWriter, r *http.Request) {
	s, err := federation.ParseShard(r.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	migrated := 0
	if r.URL.Query().Get("migrate") == "1" {
		target := f.router.Ring().With(s.Name())
		for _, src := range f.router.Shards() {
			n, err := f.copyReports(src, func(id branch.ID) (string, string) {
				if target.Owner(id) != s.Name() {
					return "", ""
				}
				return s.Name(), s.BaseURL()
			})
			if err != nil {
				fail(w, err)
				return
			}
			migrated += n
		}
	}
	if err := f.router.Join(s); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	f.rewireFeed()
	fmt.Fprintf(w, "joined %s (migrated %d reports)\n", s.Name(), migrated)
}

// handleLeave removes a shard: POST /federation/leave?shard=wire[&migrate=1][&promote=0].
// When the shard has a follower attached the leave is a failover
// instead: the follower is promoted in place (the ring does not move, no
// data redistributes — the slice's history lives on in the follower's
// depot) and every message queued toward the dead primary redelivers to
// the promoted process. Pass promote=0 to force a real departure.
// Otherwise: with migrate=1 the departure is graceful — the router
// drains its queue to the shard (the drain barrier), the shard's reports
// are copied to their new owners, and only then does the ring flip.
// Without migrate (the shard is dead) the router harvests every
// undelivered message and re-routes it — no accepted report is lost
// either way, though data only the dead shard stored is gone until
// reporters re-send. Any re-route loss is reported, never silent.
func (f *Federated) handleLeave(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("shard")
	if name == "" {
		http.Error(w, "shard parameter required", http.StatusBadRequest)
		return
	}
	leaving, known := f.router.Shard(name)
	if known && leaving.HasReplica() && r.URL.Query().Get("promote") != "0" {
		f.promote(w, name)
		return
	}
	migrated := 0
	if r.URL.Query().Get("migrate") == "1" {
		if err := f.router.DrainShard(name); err != nil {
			http.Error(w, "drain "+name+": "+err.Error(), http.StatusBadGateway)
			return
		}
		if !known {
			http.Error(w, "unknown shard "+name, http.StatusNotFound)
			return
		}
		target := f.router.Ring().Without(name)
		n, err := f.copyReports(leaving, func(id branch.ID) (string, string) {
			owner := target.Owner(id)
			s, _ := f.router.Shard(owner)
			return owner, s.BaseURL()
		})
		if err != nil {
			fail(w, err)
			return
		}
		migrated = n
	}
	moved, lost, err := f.router.Leave(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	f.rewireFeed()
	fmt.Fprintf(w, "left %s (migrated %d reports, re-routed %d queued messages, lost %d)\n", name, migrated, moved, lost)
}

// promote fails a shard over to its follower and rewires the composed
// feed (the promoted process serves a fresh cursor space under the new
// replica epoch).
func (f *Federated) promote(w http.ResponseWriter, name string) {
	s, moved, err := f.router.Promote(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	f.rewireFeed()
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
// The router starts teeing the shard's wire stream to the follower at
// once; with catchup=1 the §5f migration path then closes the history
// gap — the primary's stored reports are fetched and re-stored through
// the follower — so a late-joining follower (or a fresh follower after a
// promotion consumed the old one) converges on the primary's full state.
// Reports tee'd live while the copy runs are simply stored twice; the
// cache keeps latest-per-branch, so convergence is automatic.
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
	if err := f.router.AttachReplica(name, fw, fh); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	copied := 0
	if q.Get("catchup") == "1" {
		s, ok := f.router.Shard(name)
		if !ok {
			http.Error(w, "unknown shard "+name, http.StatusNotFound)
			return
		}
		var err error
		if s.ReplicaBaseURL() == "" {
			err = fmt.Errorf("follower of %s has no querying interface for catch-up", name)
		} else {
			copied, err = f.copyReports(s, func(branch.ID) (string, string) { return "follower", s.ReplicaBaseURL() })
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("follower attached but catch-up failed after %d reports: %v", copied, err), http.StatusBadGateway)
			return
		}
	}
	f.rewireFeed()
	fmt.Fprintf(w, "replicating %s to %s (caught up %d reports)\n", name, fw, copied)
}

// copyReports re-stores the reports src holds on the depots to names: for
// each report a label for the destination and its base URL, an empty label
// leaving the report where it is. It is how a join or a graceful leave
// moves ranges to their new owners and how a follower catches up on its
// primary's history.
func (f *Federated) copyReports(src federation.Shard, to func(branch.ID) (label, base string)) (int, error) {
	resp := f.fetchShard(src, "/reports", url.Values{"branch": {""}}, "")
	if resp.err != nil {
		return 0, badGateway("fetch %s reports: %v", src.Name(), resp.err)
	}
	defer resp.release()
	if resp.status != http.StatusOK {
		return 0, badGateway("fetch %s reports: status %d", src.Name(), resp.status)
	}
	stored, err := federation.ParseReports(resp.body)
	if err != nil {
		return 0, badGateway("parse %s reports: %v", src.Name(), err)
	}
	copied := 0
	for _, st := range stored {
		label, base := to(st.ID)
		if label == "" {
			continue
		}
		if base == "" {
			return copied, badGateway("no reachable destination %s for %s", label, st.ID)
		}
		env, err := envelope.Encode(envelope.Body, st.ID, st.XML)
		if err != nil {
			return copied, badGateway("encode %s: %v", st.ID, err)
		}
		put := f.post(src, base, "/store", env)
		put.release()
		if put.err != nil {
			return copied, badGateway("store %s on %s: %v", st.ID, label, put.err)
		}
		if put.status != http.StatusOK {
			return copied, badGateway("store %s on %s: status %d", st.ID, label, put.status)
		}
		copied++
	}
	return copied, nil
}

// rewireFeed points the composed feed, when one is attached, at the
// topology an administrative change just made.
func (f *Federated) rewireFeed() {
	if f.ff != nil {
		f.ff.rewire()
	}
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
