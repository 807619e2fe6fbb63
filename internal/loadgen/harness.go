package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"inca/internal/branch"
	"inca/internal/query"
	"inca/internal/stats"
	"inca/internal/wire"
)

// This file grows loadgen from the synthetic-report builder into a
// DiPerF-style closed-loop capacity harness (DESIGN.md §5j): a
// coordinator ramps N concurrent agent workers through staged
// concurrency levels against a live inca-server (or -federate router)
// over real TCP. Each worker drives a mixed workload — batched wire
// ingest, conditional /cache and /reports revalidations, and cold deep
// /reports queries — and the harness records per-stage throughput,
// client-side latency reservoirs, and server-side /metrics deltas, then
// locates the saturation knee: the load at which throughput plateaus
// while response time inflects.

// Op classes of the mixed workload.
const (
	OpWrite    = iota // one batched wire ingest round trip (WriteBatch reports)
	OpCondRead        // conditional GET /cache or /reports with the last ETag
	OpDeepRead        // cold site-prefix GET /reports (data-bearing body)
	opClasses
)

// opClassNames label the classes in results.
var opClassNames = [opClasses]string{"write", "cond-read", "deep-read"}

// Mix weights the op classes of the closed-loop workload. Zero values
// take the defaults (write 4, conditional read 4, deep read 2); a class
// can be disabled by making the whole mix explicit and leaving it 0 —
// a fully zero mix is rejected by NewHarness.
type Mix struct {
	Write    int
	CondRead int
	DeepRead int
}

// DefaultMix is the standard mixed workload.
var DefaultMix = Mix{Write: 4, CondRead: 4, DeepRead: 2}

func (m Mix) weights() [opClasses]int {
	return [opClasses]int{m.Write, m.CondRead, m.DeepRead}
}

func (m Mix) total() int { return m.Write + m.CondRead + m.DeepRead }

// HarnessOptions configures a capacity run.
type HarnessOptions struct {
	// WireAddr is the ingest target: a single inca-server's controller
	// port or a -federate router's.
	WireAddr string
	// HTTPBase is the querying interface ("http://host:port"), also the
	// /metrics scrape target.
	HTTPBase string
	// Stages is the concurrency ramp: strictly increasing closed-loop
	// worker counts, one measured stage each (default DefaultStages).
	Stages []int
	// StageDuration is each stage's measured window (default 2s).
	StageDuration time.Duration
	// Warmup settles each stage before measurement begins (default 300ms).
	Warmup time.Duration
	// Mix weights the op classes (zero value = DefaultMix).
	Mix Mix
	// ReportSize is the premade report payload (default 851, the paper's
	// smallest TeraGrid sample).
	ReportSize int
	// WriteBatch is how many reports one write op carries (default 8) —
	// the batched wire ingest unit whose round trip is one latency sample.
	WriteBatch int
	// Sites and Probes shape the branch working set (default 16×8).
	Sites, Probes int
	// ReservoirCap bounds each per-worker, per-class latency reservoir
	// (default 2048).
	ReservoirCap int
	// Seed makes worker op-mix choices and reservoir replacement
	// deterministic (default 2004).
	Seed int64
}

// DefaultStages is the standard ramp: six stages doubling from 1 to 32
// concurrent closed-loop workers.
var DefaultStages = []int{1, 2, 4, 8, 16, 32}

func (o *HarnessOptions) fill() error {
	if o.WireAddr == "" || o.HTTPBase == "" {
		return fmt.Errorf("loadgen: harness needs WireAddr and HTTPBase")
	}
	if len(o.Stages) == 0 {
		o.Stages = append([]int(nil), DefaultStages...)
	}
	if err := ValidateStages(o.Stages); err != nil {
		return err
	}
	if o.StageDuration <= 0 {
		o.StageDuration = 2 * time.Second
	}
	if o.Warmup < 0 {
		return fmt.Errorf("loadgen: negative warmup")
	}
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if (o.Mix == Mix{}) {
		o.Mix = DefaultMix
	}
	if o.Mix.total() <= 0 || o.Mix.Write < 0 || o.Mix.CondRead < 0 || o.Mix.DeepRead < 0 {
		return fmt.Errorf("loadgen: invalid op mix %+v", o.Mix)
	}
	if o.ReportSize == 0 {
		o.ReportSize = PaperReportSizes[0]
	}
	if o.WriteBatch <= 0 {
		o.WriteBatch = 8
	}
	if o.Sites <= 0 {
		o.Sites = 16
	}
	if o.Probes <= 0 {
		o.Probes = 8
	}
	if o.ReservoirCap <= 0 {
		o.ReservoirCap = 2048
	}
	if o.Seed == 0 {
		o.Seed = 2004
	}
	return nil
}

// ValidateStages enforces the ramp contract: at least one stage, every
// concurrency positive, strictly increasing.
func ValidateStages(stages []int) error {
	if len(stages) == 0 {
		return fmt.Errorf("loadgen: empty ramp")
	}
	for i, s := range stages {
		if s <= 0 {
			return fmt.Errorf("loadgen: stage %d has non-positive concurrency %d", i, s)
		}
		if i > 0 && s <= stages[i-1] {
			return fmt.Errorf("loadgen: ramp not strictly increasing at stage %d (%d after %d)", i, s, stages[i-1])
		}
	}
	return nil
}

// OpClassStats is one op class's share of a measured stage.
type OpClassStats struct {
	Ops           int64   `json:"ops"`
	Errors        int64   `json:"errors"`
	NotModified   int64   `json:"not_modified,omitempty"` // 304 answers (conditional reads)
	P50, P95, P99 float64 `json:"-"`                      // microseconds
}

// StageResult is one measured concurrency level.
type StageResult struct {
	// Concurrency is the closed-loop worker count.
	Concurrency int
	// Window is the measured wall time.
	Window time.Duration
	// Ops counts completed operations in the window: each stored report,
	// each conditional revalidation, each deep query.
	Ops int64
	// Errors counts failed operations.
	Errors int64
	// OpsPerSec is Ops normalized by the window.
	OpsPerSec float64
	// P50/P95/P99 are client-side response-time percentiles in
	// microseconds, merged across op classes and workers (writes
	// contribute their batch round trip as one sample).
	P50, P95, P99 float64
	// Classes breaks the stage down by op class, indexed by OpWrite,
	// OpCondRead, OpDeepRead.
	Classes [opClasses]OpClassStats
	// Server holds the /metrics deltas over the window, summed per
	// metric family (empty when scraping failed).
	Server map[string]float64
}

// Curve is a completed capacity run: the full load-vs-response-time
// trajectory and, when the ramp reached saturation, its knee.
type Curve struct {
	// Stages are the measured ramp points, in ramp order.
	Stages []StageResult
	// Knee is the detected saturation point; KneeFound reports whether
	// the ramp flattened at all.
	Knee      stats.Knee
	KneeFound bool
}

// Points projects the curve onto the knee detector's axes.
func (c *Curve) Points() []stats.CurvePoint {
	pts := make([]stats.CurvePoint, len(c.Stages))
	for i, s := range c.Stages {
		pts[i] = stats.CurvePoint{Load: float64(s.Concurrency), Throughput: s.OpsPerSec, P95: s.P95}
	}
	return pts
}

// Harness is the closed-loop coordinator.
type Harness struct {
	opt HarnessOptions

	ids      []branch.ID
	prefixes []string // site-level deep-query prefixes
	data     []byte
	tr       *http.Transport

	collector atomic.Pointer[stageCollector]
	stop      chan struct{}
	wg        sync.WaitGroup
	workers   int
}

// NewHarness validates options and prepares the working set.
func NewHarness(opt HarnessOptions) (*Harness, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	data, err := PremadeReport(opt.ReportSize)
	if err != nil {
		return nil, err
	}
	h := &Harness{opt: opt, data: data, stop: make(chan struct{})}
	for s := 0; s < opt.Sites; s++ {
		for p := 0; p < opt.Probes; p++ {
			h.ids = append(h.ids, branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=synthetic", p, s)))
		}
	}
	// The deep-query prefixes are the most-general two components of a
	// full identifier (vo + site) — the ring's affinity key, so a
	// federated deep read resolves to one owning shard.
	for s := 0; s < opt.Sites; s += 1 {
		path := h.ids[s*opt.Probes].Path()
		prefix := branch.ID{}
		for _, p := range path[:2] {
			prefix = prefix.Child(p.Name, p.Value)
		}
		h.prefixes = append(h.prefixes, prefix.String())
	}
	maxWorkers := opt.Stages[len(opt.Stages)-1]
	h.tr = &http.Transport{MaxIdleConns: 2 * maxWorkers, MaxIdleConnsPerHost: 2 * maxWorkers}
	return h, nil
}

// Options returns the harness options with defaults applied.
func (h *Harness) Options() HarnessOptions { return h.opt }

// Seed stores one report under every working-set branch and waits until
// a deep query observes data, so cold reads during the ramp always have
// something to return. It runs through the same wire path the ramp uses.
func (h *Harness) Seed() error {
	c := wire.NewBatchClient(h.opt.WireAddr, wire.BatchOptions{
		MaxBatch: 32, FlushInterval: 10 * time.Millisecond, DialTimeout: 5 * time.Second,
	})
	defer c.Close()
	for _, id := range h.ids {
		if err := c.Enqueue(&wire.Message{Branch: id.String(), Hostname: "loadgen", Report: h.data}); err != nil {
			return fmt.Errorf("loadgen: seed enqueue: %w", err)
		}
	}
	if err := c.Drain(); err != nil {
		return fmt.Errorf("loadgen: seed drain: %w", err)
	}
	// The router ack is a custody transfer; shard delivery is
	// asynchronous. Poll a deep read until every site answers.
	qc := h.queryClient()
	deadline := time.Now().Add(15 * time.Second)
	for _, prefix := range h.prefixes {
		for {
			if body, err := qc.Reports(prefix); err == nil && len(body) > 0 {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: seed not visible at %s: %v", prefix, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

func (h *Harness) queryClient() *query.Client {
	qc := query.NewClient(h.opt.HTTPBase)
	qc.HTTP = &http.Client{Transport: h.tr, Timeout: 30 * time.Second}
	return qc
}

// Run executes the full ramp and returns the capacity curve. It seeds
// the working set first, holds workers across stages (the ramp only ever
// adds load), and detects the saturation knee from the per-stage
// throughput and p95 trajectory.
func (h *Harness) Run() (*Curve, error) {
	if err := h.Seed(); err != nil {
		return nil, err
	}
	defer h.Shutdown()
	metricsURL := h.opt.HTTPBase + "/metrics"
	curve := &Curve{}
	for _, n := range h.opt.Stages {
		for h.workers < n {
			h.spawnWorker(h.workers)
			h.workers++
		}
		time.Sleep(h.opt.Warmup)
		before, _ := ScrapeMetrics(h.tr, metricsURL)
		col := newStageCollector(n, h.opt.ReservoirCap, h.opt.Seed)
		start := time.Now()
		h.collector.Store(col)
		time.Sleep(h.opt.StageDuration)
		h.collector.Store(nil)
		window := time.Since(start)
		after, _ := ScrapeMetrics(h.tr, metricsURL)
		curve.Stages = append(curve.Stages, col.result(n, window, DeltaMetrics(before, after)))
	}
	curve.Knee, curve.KneeFound = stats.DetectKnee(curve.Points(), stats.KneeOptions{})
	return curve, nil
}

// Shutdown stops every worker and releases client connections. It is
// idempotent; Run arranges for it to be called automatically.
func (h *Harness) Shutdown() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.wg.Wait()
	h.tr.CloseIdleConnections()
}

func (h *Harness) spawnWorker(idx int) {
	w := &worker{
		h:   h,
		idx: idx,
		rng: rand.New(rand.NewSource(h.opt.Seed + int64(idx)*7919)),
		qc:  h.queryClient(),
		wc: wire.NewBatchClient(h.opt.WireAddr, wire.BatchOptions{
			// One write op = fill exactly one batch (the last Enqueue
			// flushes it) and Drain for its ack: a synchronous batched
			// round trip, Window 1 so Drain waits only this op's frame.
			MaxBatch:      h.opt.WriteBatch,
			Window:        1,
			FlushInterval: -1,
			DialTimeout:   5 * time.Second,
			IOTimeout:     15 * time.Second,
		}),
	}
	h.wg.Add(1)
	go w.run()
}

// worker is one closed-loop agent: it issues an operation, waits for the
// response, records the latency, and immediately issues the next — load
// scales with the worker population, never with open-loop timers.
type worker struct {
	h    *Harness
	idx  int
	rng  *rand.Rand
	qc   *query.Client
	wc   *wire.BatchClient
	etag struct{ cache, reports string }
}

func (w *worker) run() {
	defer w.h.wg.Done()
	defer w.wc.Close()
	weights := w.h.opt.Mix.weights()
	total := w.h.opt.Mix.total()
	for {
		select {
		case <-w.h.stop:
			return
		default:
		}
		class := w.pick(weights, total)
		start := time.Now()
		ops, notMod, err := w.do(class)
		elapsed := time.Since(start)
		if col := w.h.collector.Load(); col != nil {
			col.record(w.idx, class, elapsed, ops, notMod, err)
		}
		if err != nil {
			// Back off a failing op so an unreachable server cannot spin
			// the loop into a hot error storm.
			select {
			case <-w.h.stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
}

func (w *worker) pick(weights [opClasses]int, total int) int {
	n := w.rng.Intn(total)
	for class, weight := range weights {
		if n < weight {
			return class
		}
		n -= weight
	}
	return OpWrite
}

// do executes one operation and returns how many service ops it
// completed (reports stored for a write batch, 1 for a read).
func (w *worker) do(class int) (ops int64, notModified bool, err error) {
	switch class {
	case OpWrite:
		for i := 0; i < w.h.opt.WriteBatch; i++ {
			id := w.h.ids[w.rng.Intn(len(w.h.ids))]
			if err = w.wc.Enqueue(&wire.Message{Branch: id.String(), Hostname: "loadgen", Report: w.h.data}); err != nil {
				return 0, false, err
			}
		}
		if err = w.wc.Drain(); err != nil {
			return 0, false, err
		}
		return int64(w.h.opt.WriteBatch), false, nil
	case OpCondRead:
		// Alternate the two read endpoints, carrying each one's last
		// validator — the dashboard-refresh pattern whose steady state is
		// a 304.
		if w.rng.Intn(2) == 0 {
			_, tag, nm, cerr := w.qc.CacheConditional("", w.etag.cache)
			if cerr != nil {
				return 0, false, cerr
			}
			w.etag.cache = tag
			return 1, nm, nil
		}
		_, tag, nm, cerr := w.qc.ReportsConditional("", w.etag.reports)
		if cerr != nil {
			return 0, false, cerr
		}
		w.etag.reports = tag
		return 1, nm, nil
	default: // OpDeepRead
		prefix := w.h.prefixes[w.rng.Intn(len(w.h.prefixes))]
		body, derr := w.qc.Reports(prefix)
		if derr != nil {
			return 0, false, derr
		}
		if len(body) == 0 {
			return 0, false, fmt.Errorf("loadgen: empty deep read at %s", prefix)
		}
		return 1, false, nil
	}
}

// stageCollector gathers one stage's client-side measurements: atomic op
// counters plus per-worker, per-class bounded latency reservoirs, so
// recording stays contention-free while memory stays capped no matter
// how long the stage runs.
type stageCollector struct {
	classes [opClasses]struct {
		ops     atomic.Int64
		errs    atomic.Int64
		notMod  atomic.Int64
		byClass []*stats.Reservoir
	}
}

func newStageCollector(workers, reservoirCap int, seed int64) *stageCollector {
	c := &stageCollector{}
	for class := range c.classes {
		c.classes[class].byClass = make([]*stats.Reservoir, workers)
		for wkr := 0; wkr < workers; wkr++ {
			c.classes[class].byClass[wkr] = stats.NewReservoir(reservoirCap, seed+int64(class*workers+wkr))
		}
	}
	return c
}

func (c *stageCollector) record(worker, class int, d time.Duration, ops int64, notModified bool, err error) {
	cl := &c.classes[class]
	if err != nil {
		cl.errs.Add(1)
		return
	}
	cl.ops.Add(ops)
	if notModified {
		cl.notMod.Add(1)
	}
	if worker < len(cl.byClass) {
		cl.byClass[worker].Add(float64(d) / float64(time.Microsecond))
	}
}

func (c *stageCollector) result(concurrency int, window time.Duration, server map[string]float64) StageResult {
	r := StageResult{Concurrency: concurrency, Window: window, Server: server}
	var all []*stats.Reservoir
	for class := range c.classes {
		cl := &c.classes[class]
		ps := stats.MergedPercentiles(cl.byClass, 50, 95, 99)
		r.Classes[class] = OpClassStats{
			Ops:         cl.ops.Load(),
			Errors:      cl.errs.Load(),
			NotModified: cl.notMod.Load(),
			P50:         zeroNaN(ps[0]), P95: zeroNaN(ps[1]), P99: zeroNaN(ps[2]),
		}
		r.Ops += cl.ops.Load()
		r.Errors += cl.errs.Load()
		all = append(all, cl.byClass...)
	}
	ps := stats.MergedPercentiles(all, 50, 95, 99)
	r.P50, r.P95, r.P99 = zeroNaN(ps[0]), zeroNaN(ps[1]), zeroNaN(ps[2])
	if window > 0 {
		r.OpsPerSec = float64(r.Ops) / window.Seconds()
	}
	return r
}

// ClassName labels an op class index.
func ClassName(class int) string {
	if class < 0 || class >= opClasses {
		return "unknown"
	}
	return opClassNames[class]
}

// NumOpClasses is the op-class count, for iterating StageResult.Classes.
const NumOpClasses = opClasses

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
