package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records a span around each client call and each in-process layer
// call, from the benchmark's side only; spans inside the server are a later
// change. Spans stay in memory and are written out once, at exit. End-to-end
// metrics are always measured with tracing off.

// spanID names a span; 0 is "no span" (tracing off, or no parent).
type spanID uint64

// span is one timed interval. Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	ID     spanID `json:"id"`
	Parent spanID `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span store: no locking on the record path.
type spanBuf struct {
	t     *tracer
	index uint64
	spans []span
}

const spanIndexBits = 40

// buf returns a span store for one goroutine.
func (t *tracer) buf() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, index: uint64(len(t.bufs) + 1)}
	t.bufs = append(t.bufs, b)
	return b
}

// start opens a span; it returns 0 and records nothing while tracing is off.
func (b *spanBuf) start(name string, parent spanID, req uint64) spanID {
	if !b.t.on.Load() {
		return 0
	}
	id := spanID(b.index<<spanIndexBits | uint64(len(b.spans)+1))
	b.spans = append(b.spans, span{Name: name, Start: int64(time.Since(b.t.epoch)), ID: id, Parent: parent, Req: req})
	return id
}

// end closes a span opened by start on the same buffer.
func (b *spanBuf) end(id spanID) {
	if id == 0 {
		return
	}
	b.spans[uint64(id)&(1<<spanIndexBits-1)-1].End = int64(time.Since(b.t.epoch))
}

// all returns every closed span. Call it only after the recording
// goroutines have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.End != 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// spanTotals aggregates spans of one name.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // durations minus the part child spans cover
}

// selfTimes computes, per span name, total and self time: a span's self
// time is its duration minus the durations of its direct children.
func selfTimes(spans []span) []spanTotals {
	children := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotals{}
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.Total += time.Duration(d)
		t.Self += time.Duration(d - children[s.ID])
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
