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
// shards: it exposes the same HTTP surface as Server, but answers by
// fanning requests across the shards behind a federation.Router and
// merging the responses back into the single-depot shape (DESIGN.md §5f).
//
// Conditional requests work end-to-end: each response's ETag composes
// the ring signature with every shard's own validator, a client's
// If-None-Match decomposes back into per-shard validators, and when every
// shard answers 304 the tier answers 304 — so an up-to-date consumer
// costs one integer comparison per shard and zero merge work. Requests
// at or below the ring's affinity depth skip the fan-out entirely and
// proxy to the one owning shard.
type Federated struct {
	router         *federation.Router
	httpc          *http.Client
	transport      *http.Transport // the tier's own, nil when the caller supplied the client
	reg            *metrics.Registry
	feed           *FederatedFeed // composed change feed; set by AttachFeed
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
	return &Federated{
		router:         router,
		httpc:          httpc,
		transport:      transport,
		reg:            reg,
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
}

// Close drops the idle connections the tier keeps to its shards. A tier
// built over a caller's Client leaves that client alone.
func (f *Federated) Close() {
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// Handler returns the federated HTTP mux. The read surface matches
// Server's, scatter-gather endpoints timed in the same
// inca_query_request_seconds{handler=…} family; /shards and /federation/*
// administer membership.
func (f *Federated) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/store", f.handleStore)
	mux.HandleFunc("/policy", f.handlePolicy)
	mux.HandleFunc("/cache", timed(f.reg, "cache", readOnly(f.handleCache)))
	mux.HandleFunc("/reports", timed(f.reg, "reports", readOnly(f.handleReports)))
	mux.HandleFunc("/archive", readOnly(f.handleForwarded))
	mux.HandleFunc("/graph", readOnly(f.handleForwarded))
	mux.HandleFunc("/availability", timed(f.reg, "availability", readOnly(f.handleAvailability)))
	mux.HandleFunc("/stats", readOnly(f.handleStats))
	mux.HandleFunc("/debug/vars", readOnly(f.handleDebugVars))
	mux.HandleFunc("/feed", timed(f.reg, "feed", readOnly(f.handleFeed)))
	mux.HandleFunc("/shards", readOnly(f.handleShards))
	mux.HandleFunc("/federation/join", f.handleJoin)
	mux.HandleFunc("/federation/leave", f.handleLeave)
	mux.HandleFunc("/federation/promote", f.handlePromote)
	mux.HandleFunc("/federation/replicate", f.handleReplicate)
	if f.reg != nil {
		mux.Handle("/metrics", f.reg.Handler())
	}
	return mux
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
	base := s.BaseURL()
	if base == "" {
		return shardResp{shard: s, err: fmt.Errorf("shard %s has no querying interface", s.Name())}
	}
	return f.fetchURL(s, base, path, params, inm)
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
// the validators actually served. The caller owns the returned responses
// and releases their bodies once it has written its answer; when none are
// returned they have been released here.
func (f *Federated) scatterConditional(r *http.Request, path string, params url.Values) (resps []shardResp, composed string, unchanged bool, err error) {
	shards := f.router.Shards()
	sig := f.router.Signature()
	perTags := decomposeTag(r.Header.Get("If-None-Match"), sig, len(shards))
	if perTags != nil {
		f.conditional.Inc()
	}
	f.fanouts.Inc()
	resps = f.scatter(shards, path, params, perTags, true)
	for i := range resps {
		if resps[i].err != nil {
			releaseAll(resps)
			return nil, "", false, fmt.Errorf("shard %s: %w", resps[i].shard.Name(), resps[i].err)
		}
	}
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
			return nil, composeTag(sig, perTags), true, nil
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
		if resps[i].err != nil {
			releaseAll(resps)
			return nil, "", false, fmt.Errorf("shard %s: %w", resps[i].shard.Name(), resps[i].err)
		}
		if resps[i].status == http.StatusOK {
			tags[i] = resps[i].etag
		}
	}
	return resps, composeTag(sig, tags), false, nil
}

func (f *Federated) writeNotModified(w http.ResponseWriter, tag string) {
	w.Header().Set("ETag", tag)
	w.WriteHeader(http.StatusNotModified)
}

func (f *Federated) writeBody(w http.ResponseWriter, r *http.Request, contentType, tag string, body []byte) {
	f.writePlan(w, r, contentType, tag, federation.Plan{Parts: [][]byte{body}, Len: len(body)})
}

// writePlan answers with a merge plan: Content-Length from the plan's
// total, then the shard-body slices straight to the connection — the
// merged document never exists as one buffer.
func (f *Federated) writePlan(w http.ResponseWriter, r *http.Request, contentType, tag string, plan federation.Plan) {
	w.Header().Set("Content-Type", contentType)
	if tag != "" {
		w.Header().Set("ETag", tag)
	}
	w.Header().Set("Content-Length", strconv.Itoa(plan.Len))
	if r.Method == http.MethodHead {
		return
	}
	plan.WriteTo(w) // a failed write is the client gone; nothing to report to
}

// planned runs one merge under the tier's merge instruments.
func (f *Federated) planned(merge func() (federation.Plan, error)) (federation.Plan, error) {
	f.merges.Inc()
	start := time.Now()
	plan, err := merge()
	f.mergeTime.ObserveSince(start)
	f.mergeBytes.Add(uint64(plan.Len))
	return plan, err
}

// --- owner forwarding (requests a single shard can answer) ---

// forwardOwner proxies the request to the shard owning id, re-wrapping
// the shard's validator in a composed tag so a topology change can never
// revalidate a stale answer.
func (f *Federated) forwardOwner(w http.ResponseWriter, r *http.Request, id branch.ID, path string, params url.Values) {
	shard, ok := f.router.Owner(id)
	if !ok {
		http.Error(w, "no shard owns "+id.String(), http.StatusBadGateway)
		return
	}
	f.forwards.Inc()
	sig := f.router.Signature()
	perTags := decomposeTag(r.Header.Get("If-None-Match"), sig, 1)
	inm := ""
	if perTags != nil {
		f.conditional.Inc()
		inm = perTags[0]
	}
	resp := f.fetchShardRead(shard, path, params, inm)
	if resp.err != nil {
		http.Error(w, "shard "+shard.Name()+": "+resp.err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.release()
	if resp.status == http.StatusNotModified {
		f.notModified.Inc()
		f.writeNotModified(w, composeTag(sig, perTags))
		return
	}
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.status == http.StatusOK && resp.etag != "" {
		w.Header().Set("ETag", composeTag(sig, []string{resp.etag}))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	if r.Method != http.MethodHead {
		w.Write(resp.body)
	}
}

// handleForwarded serves the endpoints whose branch parameter names a
// single owner regardless of depth (/archive, /graph: an archived series
// lives wholly on the shard owning its branch).
func (f *Federated) handleForwarded(w http.ResponseWriter, r *http.Request) {
	id, err := branch.Parse(r.URL.Query().Get("branch"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.forwardOwner(w, r, id, r.URL.Path, r.URL.Query())
}

// --- scatter-gather reads ---

func (f *Federated) handleCache(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("branch")
	id, err := branch.Parse(idStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ring := f.router.Ring()
	if !id.IsRoot() && id.Depth() >= ring.Depth() {
		// At or below the affinity depth the subtree has one owner; no
		// fan-out, no merge.
		f.forwardOwner(w, r, id, "/cache", url.Values{"branch": {idStr}})
		return
	}
	resps, tag, unchanged, err := f.scatterConditional(r, "/cache", url.Values{"branch": {idStr}})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if unchanged {
		f.writeNotModified(w, tag)
		return
	}
	defer releaseAll(resps)
	var docs []federation.ShardDoc
	for _, resp := range resps {
		switch resp.status {
		case http.StatusOK:
			docs = append(docs, federation.ShardDoc{Shard: resp.shard.Name(), Body: resp.body})
		case http.StatusNotFound:
			// This shard holds nothing under the branch; it contributes
			// nothing to the merge.
		default:
			http.Error(w, fmt.Sprintf("shard %s: status %d: %s", resp.shard.Name(), resp.status, bytes.TrimSpace(resp.body)), http.StatusBadGateway)
			return
		}
	}
	if len(docs) == 0 {
		http.Error(w, "no data at branch "+id.String(), http.StatusNotFound)
		return
	}
	plan, err := f.planned(func() (federation.Plan, error) { return federation.PlanCache(docs, id, ring) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	f.writePlan(w, r, "text/xml", tag, plan)
}

func (f *Federated) handleReports(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("branch")
	id, err := branch.Parse(idStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ring := f.router.Ring()
	if !id.IsRoot() && id.Depth() >= ring.Depth() {
		f.forwardOwner(w, r, id, "/reports", url.Values{"branch": {idStr}})
		return
	}
	resps, tag, unchanged, err := f.scatterConditional(r, "/reports", url.Values{"branch": {idStr}})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if unchanged {
		f.writeNotModified(w, tag)
		return
	}
	defer releaseAll(resps)
	var docs []federation.ShardDoc
	for _, resp := range resps {
		if resp.status != http.StatusOK {
			http.Error(w, fmt.Sprintf("shard %s: status %d: %s", resp.shard.Name(), resp.status, bytes.TrimSpace(resp.body)), http.StatusBadGateway)
			return
		}
		docs = append(docs, federation.ShardDoc{Shard: resp.shard.Name(), Body: resp.body})
	}
	plan, err := f.planned(func() (federation.Plan, error) { return federation.PlanReports(docs, ring) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	f.writePlan(w, r, "text/xml", tag, plan)
}

// handleAvailability scatters the overview as structured rows
// (format=json against each shard), merges them into request order, and
// renders the page exactly as a single depot would — each resource's
// availability archives live wholly on one shard, so the union of shard
// rows is the single-depot row set.
func (f *Federated) handleAvailability(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
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
	format := q.Get("format")
	params := url.Values{}
	for k, v := range q {
		params[k] = v
	}
	params.Set("format", "json")
	resps, tag, unchanged, err := f.scatterConditional(r, "/availability", params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if unchanged {
		f.writeNotModified(w, tag)
		return
	}
	defer releaseAll(resps) // the rows below are decoded copies
	// Merge rows in request order: resources outer, categories inner —
	// the order BuildAvailabilityPage emits. The first shard (in ring
	// order) with a row for the pair wins; duplicates only exist
	// transiently after a rebalance.
	type pair struct {
		res string
		cat agreement.Category
	}
	rows := make(map[pair]consumer.AvailabilityRow)
	for _, resp := range resps {
		if resp.status != http.StatusOK {
			http.Error(w, fmt.Sprintf("shard %s: status %d: %s", resp.shard.Name(), resp.status, bytes.TrimSpace(resp.body)), http.StatusBadGateway)
			return
		}
		page, err := unmarshalAvailabilityPage(resp.body)
		if err != nil {
			http.Error(w, fmt.Sprintf("shard %s: %v", resp.shard.Name(), err), http.StatusBadGateway)
			return
		}
		for _, row := range page.Rows {
			key := pair{row.Resource, row.Category}
			if _, dup := rows[key]; !dup {
				rows[key] = row
			}
		}
	}
	page := &consumer.AvailabilityPage{Title: "Availability overview", Start: start, End: end}
	for _, res := range resources {
		for _, cat := range cats {
			if row, ok := rows[pair{res, cat}]; ok {
				page.Rows = append(page.Rows, row)
			}
		}
	}
	var body []byte
	contentType := "text/html; charset=utf-8"
	switch format {
	case "text":
		contentType = "text/plain; charset=utf-8"
		body = []byte(page.Text())
	case "json":
		contentType = "application/json; charset=utf-8"
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
	f.merges.Inc()
	f.writeBody(w, r, contentType, tag, body)
}

// --- writes ---

// handleStore routes an envelope to the shard owning its address — the
// HTTP counterpart of the router's wire path.
func (f *Federated) handleStore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := envelope.Address(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shard, ok := f.router.Owner(id)
	if !ok || shard.BaseURL() == "" {
		http.Error(w, "no shard owns "+id.String(), http.StatusBadGateway)
		return
	}
	resp, err := f.httpc.Post(shard.BaseURL()+"/store", "text/xml", bytes.NewReader(body))
	if err != nil {
		f.shardErrors.Inc()
		http.Error(w, "shard "+shard.Name()+": "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	relayResponse(w, resp)
}

// handlePolicy broadcasts an archival policy to every shard — any shard
// may own branches the policy matches.
func (f *Federated) handlePolicy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, s := range f.router.Shards() {
		if s.BaseURL() == "" {
			http.Error(w, "shard "+s.Name()+" has no querying interface", http.StatusBadGateway)
			return
		}
		resp, err := f.httpc.Post(s.BaseURL()+"/policy", "text/xml", bytes.NewReader(body))
		if err != nil {
			f.shardErrors.Inc()
			http.Error(w, "shard "+s.Name()+": "+err.Error(), http.StatusBadGateway)
			return
		}
		if resp.StatusCode != http.StatusOK {
			relayResponse(w, resp)
			resp.Body.Close()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	w.WriteHeader(http.StatusOK)
}

func relayResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// --- aggregates and administration ---

func (f *Federated) handleStats(w http.ResponseWriter, r *http.Request) {
	resps := f.scatter(f.router.Shards(), "/stats", nil, nil, false)
	var total xmlStats
	for _, resp := range resps {
		if resp.err != nil {
			http.Error(w, "shard "+resp.shard.Name()+": "+resp.err.Error(), http.StatusBadGateway)
			return
		}
		var xs xmlStats
		if err := xml.Unmarshal(resp.body, &xs); err != nil {
			http.Error(w, "shard "+resp.shard.Name()+": "+err.Error(), http.StatusBadGateway)
			return
		}
		total.Received += xs.Received
		total.Bytes += xs.Bytes
		total.CacheSize += xs.CacheSize
		total.CacheCount += xs.CacheCount
		total.Archives += xs.Archives
	}
	w.Header().Set("Content-Type", "text/xml")
	xml.NewEncoder(w).Encode(total)
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

func (f *Federated) vars() FederatedVars {
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

func (f *Federated) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(f.vars())
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
// With migrate=1 the ranges the new member claims are copied over before
// the ring flips, so reads stay complete throughout; copies the old
// owners keep are masked by the merge's owner-wins rule. The copy is a
// best-effort snapshot — reports ingested for a moved range mid-copy
// reach the new owner on the reporter's next cycle (the cache keeps
// latest-per-branch, so convergence is automatic).
func (f *Federated) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s, err := federation.ParseShard(r.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	migrated := 0
	if r.URL.Query().Get("migrate") == "1" {
		target := f.router.Ring().With(s.Name())
		n, err := f.migrate(f.router.Shards(), target, map[string]federation.Shard{s.Name(): s}, s.Name())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		migrated = n
	}
	if err := f.router.Join(s); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if f.feed != nil {
		f.feed.rewire()
	}
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("shard")
	if name == "" {
		http.Error(w, "shard parameter required", http.StatusBadRequest)
		return
	}
	if s, ok := f.router.Shard(name); ok && s.HasReplica() && r.URL.Query().Get("promote") != "0" {
		f.promote(w, name)
		return
	}
	migrated := 0
	if r.URL.Query().Get("migrate") == "1" {
		if err := f.router.DrainShard(name); err != nil {
			http.Error(w, "drain "+name+": "+err.Error(), http.StatusBadGateway)
			return
		}
		var leaving *federation.Shard
		for _, s := range f.router.Shards() {
			if s.Name() == name {
				s := s
				leaving = &s
				break
			}
		}
		if leaving == nil {
			http.Error(w, "unknown shard "+name, http.StatusNotFound)
			return
		}
		target := f.router.Ring().Without(name)
		survivors := make(map[string]federation.Shard)
		for _, s := range f.router.Shards() {
			if s.Name() != name {
				survivors[s.Name()] = s
			}
		}
		n, err := f.migrate([]federation.Shard{*leaving}, target, survivors, "")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		migrated = n
	}
	moved, lost, err := f.router.Leave(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if f.feed != nil {
		f.feed.rewire()
	}
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
	if f.feed != nil {
		f.feed.rewire()
	}
	fmt.Fprintf(w, "promoted follower %s for shard %s (re-enqueued %d queued messages)\n", s.Wire, name, moved)
}

// handlePromote fails a shard over to its follower without waiting for a
// leave: POST /federation/promote?shard=name. The ring does not move;
// the slice's reads and ingest switch to the follower process.
func (f *Federated) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
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
func (f *Federated) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
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
		n, err := f.catchUp(s)
		if err != nil {
			http.Error(w, fmt.Sprintf("follower attached but catch-up failed after %d reports: %v", n, err), http.StatusBadGateway)
			return
		}
		copied = n
	}
	if f.feed != nil {
		f.feed.rewire()
	}
	fmt.Fprintf(w, "replicating %s to %s (caught up %d reports)\n", name, fw, copied)
}

// catchUp copies the primary's stored reports onto its follower — the
// §5f migration path pointed at the replica instead of a new ring owner.
// Reports tee'd live while the copy runs are simply stored twice; the
// cache keeps latest-per-branch, so convergence is automatic.
func (f *Federated) catchUp(s federation.Shard) (int, error) {
	dest := s.ReplicaBaseURL()
	if dest == "" {
		return 0, fmt.Errorf("follower of %s has no querying interface for catch-up", s.Name())
	}
	resp := f.fetchShard(s, "/reports", url.Values{"branch": {""}}, "")
	if resp.err != nil {
		return 0, fmt.Errorf("fetch %s reports: %w", s.Name(), resp.err)
	}
	if resp.status != http.StatusOK {
		return 0, fmt.Errorf("fetch %s reports: status %d", s.Name(), resp.status)
	}
	stored, err := federation.ParseReports(resp.body)
	if err != nil {
		return 0, fmt.Errorf("parse %s reports: %w", s.Name(), err)
	}
	copied := 0
	for _, st := range stored {
		env, err := envelope.Encode(envelope.Body, st.ID, st.XML)
		if err != nil {
			return copied, fmt.Errorf("encode %s: %w", st.ID, err)
		}
		put, err := f.httpc.Post(dest+"/store", "text/xml", bytes.NewReader(env))
		if err != nil {
			return copied, fmt.Errorf("store %s on follower: %w", st.ID, err)
		}
		io.Copy(io.Discard, put.Body)
		put.Body.Close()
		if put.StatusCode != http.StatusOK {
			return copied, fmt.Errorf("store %s on follower: status %d", st.ID, put.StatusCode)
		}
		copied++
	}
	return copied, nil
}

// migrate copies stored reports from the sources to their owner under the
// target ring, restricted to onlyTo when non-empty (a join migrates only
// onto the joining shard). dests maps ring names to shards reachable for
// the copy.
func (f *Federated) migrate(sources []federation.Shard, target *federation.Ring, dests map[string]federation.Shard, onlyTo string) (int, error) {
	copied := 0
	for _, src := range sources {
		resp := f.fetchShard(src, "/reports", url.Values{"branch": {""}}, "")
		if resp.err != nil {
			return copied, fmt.Errorf("fetch %s reports: %w", src.Name(), resp.err)
		}
		if resp.status != http.StatusOK {
			return copied, fmt.Errorf("fetch %s reports: status %d", src.Name(), resp.status)
		}
		stored, err := federation.ParseReports(resp.body)
		if err != nil {
			return copied, fmt.Errorf("parse %s reports: %w", src.Name(), err)
		}
		for _, st := range stored {
			owner := target.Owner(st.ID)
			if owner == src.Name() {
				continue
			}
			if onlyTo != "" && owner != onlyTo {
				continue
			}
			dest, ok := dests[owner]
			if !ok || dest.BaseURL() == "" {
				return copied, fmt.Errorf("no reachable destination %s for %s", owner, st.ID)
			}
			env, err := envelope.Encode(envelope.Body, st.ID, st.XML)
			if err != nil {
				return copied, fmt.Errorf("encode %s: %w", st.ID, err)
			}
			put, err := f.httpc.Post(dest.BaseURL()+"/store", "text/xml", bytes.NewReader(env))
			if err != nil {
				return copied, fmt.Errorf("store %s on %s: %w", st.ID, owner, err)
			}
			io.Copy(io.Discard, put.Body)
			put.Body.Close()
			if put.StatusCode != http.StatusOK {
				return copied, fmt.Errorf("store %s on %s: status %d", st.ID, owner, put.StatusCode)
			}
			copied++
		}
	}
	return copied, nil
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
