// Package metrics is a process-local, stdlib-only instrument set for the
// white-box monitoring the paper's operational story leans on (Section 5:
// availability series and controller resource usage are *measured*, so the
// harness itself must be measurable). It follows the Borgmon/Prometheus
// discipline — counters, gauges, and fixed-bucket latency histograms — with
// Prometheus text-format exposition (expose.go) on GET /metrics.
//
// There is deliberately no global registry: tests and embedded servers
// construct several pipelines in one process, and a process-global map would
// make their series collide — the same constraint that forced the
// self-rendered /debug/vars in internal/query. Instead every subsystem takes
// an optional *Registry; the embedding daemon shares one across the whole
// pipeline so a single scrape covers agent → wire → controller → depot →
// query.
//
// All registration methods are safe on a nil *Registry: they return working
// (but unexposed) instruments, so instrumented code never nil-checks and the
// same instrument feeds both the legacy Stats()/DebugVars views and the
// Prometheus output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is an instrument family's type, mirroring the Prometheus TYPE line.
type Kind int

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefBuckets are the default latency-histogram upper bounds (seconds),
// spanning in-process work (cache inserts settle in microseconds) through
// network round trips and backoff waits. Fixed buckets keep Observe O(log n)
// with no allocation — the always-on-profiling constraint.
var DefBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 (depths, sizes, entry counts). Float-valued
// gauges are registered as GaugeFunc instead.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets hold per-interval
// counts internally and render cumulatively (Prometheus `le` semantics);
// Observe is lock-free: one binary search, one bucket increment, one CAS
// loop folding the value into the sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; implicit +Inf above
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram buckets not ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the common
// latency-timing call: defer-free, one time.Since.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf.
// The count is the +Inf bucket's, not a second read of h.count, which an
// Observe racing the bucket loads could have moved: an exposition's _count
// must equal its +Inf bucket.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run, h.Sum()
}

// instrument is anything a family can hold.
type instrument interface{}

// series is one (labels, instrument) pair within a family.
type series struct {
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	inst   instrument
}

// family groups the series sharing one metric name (one TYPE/HELP block in
// the exposition).
type family struct {
	name   string
	help   string
	kind   Kind
	series []series // registration order
}

func (f *family) find(labels string) instrument {
	for i := range f.series {
		if f.series[i].labels == labels {
			return f.series[i].inst
		}
	}
	return nil
}

// Registry holds instrument families for one pipeline. The zero value is
// not useful; construct with NewRegistry. A nil *Registry is a valid
// receiver for every registration method (instruments work, nothing is
// exposed), so subsystems instrument unconditionally.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// get returns the named family, creating it with the given kind and help on
// first registration. Re-registering an existing name with a different kind
// is a programming error and panics (the exposition could not type the
// family consistently).
func (r *Registry) get(name, help string, kind Kind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter registered under name with the given label
// pairs, creating it on first use. labels alternate key, value. Safe on a
// nil registry (returns a working, unexposed counter).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindCounter)
	if inst := f.find(sig); inst != nil {
		return inst.(*Counter)
	}
	c := &Counter{}
	f.series = append(f.series, series{labels: sig, inst: c})
	return c
}

// Gauge returns the gauge registered under name with the given label pairs,
// creating it on first use. Safe on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindGauge)
	if inst := f.find(sig); inst != nil {
		return inst.(*Gauge)
	}
	g := &Gauge{}
	f.series = append(f.series, series{labels: sig, inst: g})
	return g
}

// gaugeFunc wraps a callback sampled at exposition time — for values some
// other structure already maintains (spool depth, cache size, next-fire
// lag), where pushing updates would duplicate state.
type gaugeFunc struct{ fn func() float64 }

// GaugeFunc registers a callback-backed gauge. The callback runs on every
// scrape, so it must be cheap and safe for concurrent use. A duplicate
// (name, labels) registration keeps the first callback. No-op on a nil
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindGauge)
	if f.find(sig) != nil {
		return
	}
	f.series = append(f.series, series{labels: sig, inst: gaugeFunc{fn}})
}

// Histogram returns the histogram registered under name with the given
// label pairs, creating it with the bucket bounds on first use (nil buckets
// = DefBuckets). Later registrations reuse the first instrument, bounds
// included. Safe on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return newHistogram(buckets)
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindHistogram)
	if inst := f.find(sig); inst != nil {
		return inst.(*Histogram)
	}
	h := newHistogram(buckets)
	f.series = append(f.series, series{labels: sig, inst: h})
	return h
}

// labelSig renders alternating key, value pairs as the canonical
// {k="v",...} sample suffix. Pairs are sorted by key so the same label set
// always maps to the same series regardless of argument order.
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: odd label list (want alternating key, value)")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("metrics: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the text format: backslash, double
// quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
