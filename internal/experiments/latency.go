package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"inca/internal/stats"
)

// Latency reservoirs are bounded regardless of how long a cell runs:
// capHint (the caller's per-worker volume estimate) is clamped into this
// range, and anything past the cap is subsampled uniformly (Vitter's
// algorithm R) instead of accumulated. stats.TestReservoirPercentileTolerance
// pins the resulting p50/p95/p99 within 5% of exact over heavy-tailed
// streams, including workers with very different volumes.
const (
	latencyReservoirMin = 512
	latencyReservoirMax = 8192
)

// latencyTracker collects per-operation wall times with one bounded
// reservoir per worker, so recording is contention-free during a
// measured cell and memory stays capped however many operations run.
type latencyTracker struct {
	perWorker []*stats.Reservoir
}

func newLatencyTracker(workers, capHint int) *latencyTracker {
	if capHint < latencyReservoirMin {
		capHint = latencyReservoirMin
	}
	if capHint > latencyReservoirMax {
		capHint = latencyReservoirMax
	}
	t := &latencyTracker{perWorker: make([]*stats.Reservoir, workers)}
	for i := range t.perWorker {
		t.perWorker[i] = stats.NewReservoir(capHint, int64(i)+1)
	}
	return t
}

func (t *latencyTracker) observe(worker int, d time.Duration) {
	t.perWorker[worker].Add(float64(d) / float64(time.Microsecond))
}

// percentiles merges every worker's reservoir, weighted by how much
// traffic each actually saw, and returns p50/p95/p99 in microseconds
// (zeros when nothing was recorded).
func (t *latencyTracker) percentiles() (p50, p95, p99 float64) {
	ps := stats.MergedPercentiles(t.perWorker, 50, 95, 99)
	if ps[0] != ps[0] { // NaN: nothing recorded
		return 0, 0, 0
	}
	return ps[0], ps[1], ps[2]
}

// cellStats is one measured cell: throughput plus its latency
// distribution — the row Metric entries are built from.
type cellStats struct {
	OpsPerSec     float64
	P50, P95, P99 float64 // microseconds
}

func (c cellStats) metric(name string, labels map[string]string) Metric {
	return Metric{
		Name:      name,
		Labels:    labels,
		OpsPerSec: c.OpsPerSec,
		P50Micros: c.P50,
		P95Micros: c.P95,
		P99Micros: c.P99,
	}
}

// cellStop is a cell's stop rule: after ops operations in total when ops
// is set, otherwise when an operation ends past the budget (so every
// worker completes at least one).
type cellStop struct {
	ops    int
	budget time.Duration
}

// runCell is the closed loop every throughput cell shares: workers
// goroutines draw tickets 1, 2, 3, ... from one counter and time op(ticket)
// into their own reservoir until the stop rule holds. The first failing op
// stops its worker and fails the cell. drain, when non-nil, runs after the
// workers finish and before the clock stops, so work an op only queued is
// charged to the cell's throughput.
func runCell(workers int, stop cellStop, op func(i int) error, drain func() error) (cellStats, error) {
	capHint := 4096
	if stop.ops > 0 {
		capHint = stop.ops/workers + 1
	}
	lat := newLatencyTracker(workers, capHint)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	start := time.Now()
	deadline := start.Add(stop.budget)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if stop.ops > 0 && i > stop.ops {
					return
				}
				opStart := time.Now()
				if oerr := op(i); oerr != nil {
					errOnce.Do(func() { err = oerr })
					return
				}
				end := time.Now()
				lat.observe(w, end.Sub(opStart))
				if stop.ops == 0 && end.After(deadline) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err == nil && drain != nil {
		err = drain()
	}
	elapsed := time.Since(start)
	if err != nil {
		return cellStats{}, err
	}
	var done int64
	for _, r := range lat.perWorker {
		done += r.Count()
	}
	cell := cellStats{OpsPerSec: float64(done) / elapsed.Seconds()}
	cell.P50, cell.P95, cell.P99 = lat.percentiles()
	return cell, nil
}
