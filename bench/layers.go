package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"inca/internal/agent"
	"inca/internal/branch"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/feed"
	"inca/internal/query"
	"inca/internal/report"
	"inca/internal/rrd"
	rrdfile "inca/internal/rrd/file"
	"inca/internal/wire"
)

// The micro-trace calls each layer's public functions in this process, on
// inputs from the same generator the workloads use, with no server and (but
// for the federation stubs) no sockets. Each figure is the median of
// microRounds rounds, each round the mean of its calls, and each round is
// one span. The two report sizes separate per-message from per-byte cost.

const microRounds = 5

// micro measures layer calls into a run's per-layer metrics.
type micro struct {
	res   *runResult
	sb    *spanBuf
	scale int   // divides every iteration count
	err   error // first failure; later measurements are skipped
}

func (m *micro) iters(n int) int {
	if n /= m.scale; n < 1 {
		return 1
	}
	return n
}

// roundBudget caps the time one round of calls may take, so that a slow
// call (a 1 MB document merge) gets few iterations and the whole
// micro-trace stays within a few seconds.
const roundBudget = 25 * time.Millisecond

// measure times fn, called iters times per round. With prep set, prep runs
// before every call outside the timing (and each call is timed on its own);
// without, a round is timed as a whole, which suits calls of nanoseconds.
func (m *micro) measure(name string, unit time.Duration, iters int, prep func(), fn func() error) {
	m.res.set(name, m.time(name, unit, iters, prep, fn), microRounds, "rounds")
}

// time is measure without recording the figure. iters is an upper limit:
// a first, untimed call (which also warms the path) sizes the rounds to
// roundBudget.
func (m *micro) time(name string, unit time.Duration, iters int, prep func(), fn func() error) float64 {
	if m.err != nil {
		return 0
	}
	if prep != nil {
		prep()
	}
	start := time.Now()
	if err := fn(); err != nil {
		m.err = fmt.Errorf("%s: %w", name, err)
		return 0
	}
	if fit := int(roundBudget / (time.Since(start) + 1)); fit < iters {
		iters = fit
	}
	iters = m.iters(iters)
	var rounds []float64
	for r := 0; r < microRounds; r++ {
		sp := m.sb.start("micro."+name, 0, 0)
		var busy time.Duration
		start := time.Now()
		for i := 0; i < iters; i++ {
			if prep != nil {
				prep()
				start = time.Now()
			}
			if err := fn(); err != nil {
				m.err = fmt.Errorf("%s: %w", name, err)
				return 0
			}
			if prep != nil {
				busy += time.Since(start)
			}
		}
		if prep == nil {
			busy = time.Since(start)
		}
		m.sb.end(sp)
		rounds = append(rounds, float64(busy)/float64(iters)/float64(unit))
	}
	return median(rounds)
}

// ackAll is a shard stub: it acknowledges everything it is sent.
func ackAll(*wire.Message, string) *wire.Ack { return &wire.Ack{OK: true} }

// layerTrace runs the whole micro-trace into e.layers. It does not depend
// on the workload, so a process runs it once and every traced run reports
// the same figures.
func (e *env) layerTrace(tr *tracer) error {
	res := &runResult{metrics: map[string]metricValue{}}
	m := &micro{res: res, sb: tr.buf(), scale: e.microScale}
	const us, ns = time.Microsecond, time.Nanosecond

	large, err := newTemplate(largeReport)
	if err != nil {
		return err
	}
	ws := newWorkingSet(sitesFull, probesFull)
	ids := make([]branch.ID, len(ws.ids))
	for i, s := range ws.ids {
		ids[i] = branch.MustParse(s)
	}
	seq := 0
	// next returns a fresh small report for the next branch in rotation;
	// every branch's clock advances each time round.
	buf := make([]byte, smallReport)
	next := func() (branch.ID, string, []byte) {
		seq++
		e.small.fill(buf, 1+seq/len(ids), time.Unix(0, int64(seq)))
		return ids[seq%len(ids)], ws.ids[seq%len(ids)], buf
	}
	bigBuf := make([]byte, largeReport)
	large.fill(bigBuf, 1, time.Unix(0, 1))

	// branch
	m.measure("branch.parse_ns", ns, 20000, nil, func() error {
		_, err := branch.Parse(ws.ids[7])
		return err
	})

	// wire
	bb := newBatchBuilder(e.small, ws, make([]int, len(ws.ids)), batchSize)
	msgs := bb.build([]int{0, 1, 2, 3, 4, 5, 6, 7}, time.Unix(0, 1))
	var frame bytes.Buffer
	m.measure("wire.encode_batch_us", us, 2000, nil, func() error {
		frame.Reset()
		return wire.WriteBatch(&frame, msgs)
	})
	m.measure("wire.decode_batch_us", us, 2000, nil, func() error {
		_, err := wire.ReadBatch(bytes.NewReader(frame.Bytes()))
		return err
	})
	var bigFrame bytes.Buffer
	if err := wire.WriteMessage(&bigFrame, &wire.Message{Branch: ws.ids[0], Hostname: "bench", Report: bigBuf}); err != nil {
		return err
	}
	m.measure("wire.decode_msg_us.45527", us, 1000, nil, func() error {
		_, err := wire.ReadMessage(bytes.NewReader(bigFrame.Bytes()))
		return err
	})

	// envelope
	var env851, env45527 []byte
	m.measure("envelope.encode_us.851", us, 5000, nil, func() error {
		env851, err = envelope.Encode(envelope.Body, ids[0], e.small.data)
		return err
	})
	m.measure("envelope.decode_us.851", us, 5000, nil, func() error {
		_, err := envelope.Decode(env851)
		return err
	})
	if env45527, err = envelope.Encode(envelope.Body, ids[0], bigBuf); err != nil {
		return err
	}
	m.measure("envelope.decode_us.45527", us, 300, nil, func() error {
		_, err := envelope.Decode(env45527)
		return err
	})

	// report
	paths := []report.Path{report.MustCompilePath(valuePath)}
	m.measure("report.extract_us", us, 3000, nil, func() error {
		ex, err := report.ExtractValues(e.small.data, paths)
		if err == nil && !ex.Found[0] {
			err = fmt.Errorf("value not found at %s", valuePath)
		}
		return err
	})
	m.measure("report.parse_us", us, 1000, nil, func() error {
		_, err := report.Parse(e.small.data)
		return err
	})

	// rrd, in memory and paged on disk
	policy := valuePolicy()
	mem, err := rrd.NewFromPolicy(gmtBase, policyName, policy.Archive)
	if err != nil {
		return err
	}
	step := 0
	m.measure("rrd.update_us", us, 5000, nil, func() error {
		step++
		return mem.Update(gmtBase.Add(time.Duration(step)*policyStep), float64(step))
	})
	dir, err := os.MkdirTemp(e.runDir, "micro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rrdPath := filepath.Join(dir, "series.rrd")
	paged, err := rrdfile.CreateFromPolicy(rrdPath, gmtBase, policyName, policy.Archive)
	if err != nil {
		return err
	}
	step = 0
	m.measure("rrd.file.update_us", us, 2000, nil, func() error {
		step++
		return paged.Update(gmtBase.Add(time.Duration(step)*policyStep), float64(step))
	})
	m.measure("rrd.file.open_us", us, 300, func() { paged.Close() }, func() error {
		paged, err = rrdfile.Open(rrdPath)
		return err
	})
	paged.Close()

	// depot: the indexed cache at the workloads' 1024 entries
	cache := depot.NewIndexedCache()
	for range ids {
		id, _, data := next()
		if _, err := cache.Update(id, data); err != nil {
			return err
		}
	}
	m.measure("depot.cache_update_us", us, 5000, nil, func() error {
		id, _, data := next()
		_, err := cache.Update(id, data)
		return err
	})
	m.measure("depot.cache_query_exact_us", us, 5000, nil, func() error {
		_, ok, err := cache.Query(ids[33])
		if err == nil && !ok {
			err = fmt.Errorf("no entry at %s", ids[33])
		}
		return err
	})
	site := branch.MustParse(ws.prefixes[3])
	m.measure("depot.cache_reports_subtree_us", us, 2000, nil, func() error {
		stored, err := cache.Reports(site)
		if err == nil && len(stored) != probesFull {
			err = fmt.Errorf("%d reports under %s", len(stored), site)
		}
		return err
	})
	dirty := func() {
		id, _, data := next()
		cache.Update(id, data)
	}
	m.measure("depot.cache_dump_dirty_us", us, 100, dirty, func() error { cache.Dump(); return nil })
	m.measure("depot.cache_dump_clean_us", us, 2000, nil, func() error { cache.Dump(); return nil })

	// controller: Handle's own time, the depot's receipt taken out
	memDepot := depot.New(depot.NewIndexedCache())
	if err := memDepot.AddPolicy(policy); err != nil {
		return err
	}
	timed := &receiptTimer{d: memDepot}
	ctl := controller.New(timed, controller.Options{Mode: envelope.Body})
	msg := &wire.Message{Hostname: "bench"}
	handle := func() error {
		_, msg.Branch, msg.Report = next()
		if ack := ctl.Handle(msg, "bench"); !ack.OK {
			return fmt.Errorf("nack: %s", ack.Message)
		}
		return nil
	}
	for range ids { // fill the depot: the query handlers below read it
		if err := handle(); err != nil {
			return err
		}
	}
	var self []float64
	handles := m.iters(2000)
	for r := 0; r < microRounds && m.err == nil; r++ {
		timed.total = 0
		start := time.Now()
		for i := 0; i < handles && m.err == nil; i++ {
			m.err = handle()
		}
		self = append(self, float64(time.Since(start)-timed.total)/float64(handles)/float64(us))
	}
	res.set("controller.handle_self_us", median(self), microRounds*handles, "")

	// depot on disk: the log's cost by difference from memory, the full
	// store path with 512 series behind 64 handles, checkpoint and replay
	// (over a cache that stores nothing, so the log is all that differs)
	plainMem := depot.New(depot.NullCache{})
	plainDisk, err := depot.OpenDisk(depot.DiskOptions{Dir: filepath.Join(dir, "plain"), Cache: depot.NullCache{}})
	if err != nil {
		return err
	}
	storeInto := func(d *depot.Depot) func() error {
		return func() error {
			id, _, data := next()
			_, err := d.Store(id, data)
			return err
		}
	}
	memUS := m.time("depot.store_memory", us, 3000, nil, storeInto(plainMem))
	diskUS := m.time("depot.store_disk", us, 3000, nil, storeInto(plainDisk))
	res.set("depot.disk_store_nopolicy_us", diskUS-memUS, microRounds, "rounds; disk store minus memory store")
	plainDisk.Close()

	diskDir := filepath.Join(dir, "full")
	openFull := func() (*depot.Depot, error) {
		return depot.OpenDisk(depot.DiskOptions{Dir: diskDir, Cache: depot.NewIndexedCache()})
	}
	full, err := openFull()
	if err != nil {
		return err
	}
	if err := full.AddPolicy(policy); err != nil {
		return err
	}
	const diskSeries = 512
	diskSeq := 0
	storeFull := func() error {
		diskSeq++
		i := diskSeq % diskSeries
		e.small.fill(buf, 1+diskSeq/diskSeries, time.Unix(0, int64(diskSeq)))
		_, err := full.Store(ids[i], buf)
		return err
	}
	m.measure("depot.disk_store_us", us, 400, nil, storeFull)
	m.measure("depot.checkpoint_ms", time.Millisecond, 1, func() { m.err = storeFull() }, full.Checkpoint)
	var replay []float64
	frames := m.iters(400)
	for r := 0; r < 3 && m.err == nil; r++ {
		if err := full.Checkpoint(); err != nil {
			return err
		}
		for i := 0; i < frames; i++ {
			if err := storeFull(); err != nil {
				return err
			}
		}
		full.Close() // no checkpoint: the next open replays the log
		sp := m.sb.start("micro.depot.replay_frames_per_s", 0, 0)
		start := time.Now()
		if full, err = openFull(); err != nil {
			return err
		}
		replay = append(replay, float64(frames)/time.Since(start).Seconds())
		m.sb.end(sp)
	}
	res.set("depot.replay_frames_per_s", median(replay), 3*frames, "")
	full.Close()

	// federation: ring lookup, the router's custody hand-off to stub shards
	// that acknowledge everything, and the two document merges
	var depots []*depot.Depot
	var shards []federation.Shard
	for i := 0; i < 2; i++ {
		stub, err := wire.Serve("127.0.0.1:0", ackAll)
		if err != nil {
			return err
		}
		defer stub.Close()
		d := depot.New(depot.NewIndexedCache())
		web := httptest.NewServer(query.NewServer(d).Handler())
		defer web.Close()
		depots = append(depots, d)
		shards = append(shards, federation.Shard{Wire: stub.Addr(), HTTP: web.Listener.Addr().String()})
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		return err
	}
	defer router.Close()
	ring := router.Ring()
	m.measure("federation.ring_owner_ns", ns, 20000, nil, func() error {
		if ring.Owner(ids[9]) == "" {
			return fmt.Errorf("no owner")
		}
		return nil
	})
	routed := 0
	m.measure("federation.router_handle_us", us, 2000, func() {
		// Keep the per-shard backlog short, so the figure is the hand-off
		// and never a refusal.
		if routed++; routed%500 == 0 {
			router.Drain()
		}
	}, func() error {
		_, msg.Branch, msg.Report = next()
		if ack := router.Handle(msg, "bench"); !ack.OK {
			return fmt.Errorf("nack: %s", ack.Message)
		}
		return nil
	})
	if err := router.Drain(); err != nil && m.err == nil {
		return err
	}
	byName := map[string]*depot.Depot{}
	for i, s := range shards {
		byName[s.Name()] = depots[i]
	}
	for i, id := range ids {
		e.small.fill(buf, 1, time.Unix(0, int64(i)))
		if _, err := byName[ring.Owner(id)].Store(id, buf); err != nil {
			return err
		}
	}
	var cacheDocs, reportDocs []federation.ShardDoc
	get := func(h http.Handler, path, prefix, etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path+"?"+url.Values{"branch": {prefix}}.Encode(), nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for i, d := range depots {
		cacheDocs = append(cacheDocs, federation.ShardDoc{Shard: shards[i].Name(), Body: d.Cache().Dump()})
		reportDocs = append(reportDocs, federation.ShardDoc{Shard: shards[i].Name(),
			Body: get(query.NewServer(d).Handler(), "/reports", "", "").Body.Bytes()})
	}
	m.measure("federation.merge_cache_us", us, 50, nil, func() error {
		_, err := federation.MergeCache(cacheDocs, branch.ID{}, ring)
		return err
	})
	m.measure("federation.merge_reports_us", us, 50, nil, func() error {
		_, err := federation.MergeReports(reportDocs, ring)
		return err
	})

	// query: the single-depot handlers on a recorder, then the federated
	// tier over the two in-process shards
	expect := func(rec *httptest.ResponseRecorder, code int) error {
		if rec.Code != code {
			return fmt.Errorf("status %d, want %d", rec.Code, code)
		}
		return nil
	}
	subtreeLen := subtreeBodyLen(ws, smallReport)
	expectSubtree := func(rec *httptest.ResponseRecorder) error {
		if rec.Code != http.StatusOK || rec.Body.Len() != subtreeLen {
			return fmt.Errorf("status %d with %d bytes, want 200 with %d", rec.Code, rec.Body.Len(), subtreeLen)
		}
		return nil
	}
	single := query.NewServer(memDepot).Handler()
	m.measure("query.handler_subtree_us", us, 2000, nil, func() error {
		return expectSubtree(get(single, "/reports", ws.prefixes[3], ""))
	})
	etag := get(single, "/cache", "", "").Header().Get("ETag")
	m.measure("query.handler_304_us", us, 5000, nil, func() error {
		return expect(get(single, "/cache", "", etag), http.StatusNotModified)
	})
	m.measure("query.handler_full_us", us, 300, nil, func() error {
		return expect(get(single, "/cache", "", ""), http.StatusOK)
	})
	fed := query.NewFederated(router, query.FederatedOptions{}).Handler()
	fedTag := get(fed, "/cache", "", "").Header().Get("ETag")
	m.measure("query.federated_304_us", us, 300, nil, func() error {
		return expect(get(fed, "/cache", "", fedTag), http.StatusNotModified)
	})
	m.measure("query.federated_subtree_us", us, 300, nil, func() error {
		return expectSubtree(get(fed, "/reports", ws.prefixes[3], ""))
	})

	// feed: one subscriber, publish then drain
	hub := feed.NewHub(feed.Options{})
	sub, _, _ := hub.Subscribe(branch.ID{}, "")
	m.measure("feed.publish_to_drain_us", us, 5000, nil, func() error {
		id, _, data := next()
		hub.Publish(feed.Event{Branch: id, Kind: feed.KindReport, Data: data})
		if events, _ := sub.Drain(); len(events) != 1 {
			return fmt.Errorf("drained %d events, want 1", len(events))
		}
		return nil
	})
	sub.Close()
	hub.Close()

	// agent: the reliable-delivery spool, in memory
	spool, err := agent.NewSpool(agent.SpoolOptions{})
	if err != nil {
		return err
	}
	m.measure("agent.spool_put_take_us", us, 5000, nil, func() error {
		if err := spool.Put(msgs[0]); err != nil {
			return err
		}
		if got := spool.PeekBatch(1); len(got) != 1 {
			return fmt.Errorf("peeked %d messages, want 1", len(got))
		}
		spool.PopN(1)
		return nil
	})
	spool.Close()
	if m.err == nil {
		e.layers = res.metrics
	}
	return m.err
}

// receiptTimer is a depot client that sums the depot's own account of each
// store, so the controller's share of Handle is what remains.
type receiptTimer struct {
	d     *depot.Depot
	total time.Duration
}

func (t *receiptTimer) StoreEnvelope(data []byte) (depot.Receipt, error) {
	rec, err := t.d.StoreEnvelope(data)
	t.total += rec.Total()
	return rec, err
}
