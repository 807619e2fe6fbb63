package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inca/internal/branch"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/loadgen"
)

// The federated multi-depot experiment (DESIGN.md §5f): shard the branch
// space over N depots with the production consistent-hash ring and
// measure how ingest and query throughput scale with the shard count.
// This is the in-process mirror of the deployed topology — the same ring
// decides placement, each shard is a full depot with its own canonical
// document, and the 1-shard row is the single-depot baseline every
// speedup is quoted against. BenchmarkFederatedIngest/Query in
// bench_test.go wrap the same cells under testing.B.

// FederationOptions configures the federation scaling experiment.
type FederationOptions struct {
	// Updates is how many steady-state submissions each ingest cell
	// measures (default 100000: a second or two per cell on the indexed
	// cache, where the 2000 that suited the stream cache last 30 ms).
	Updates int
	// Budget is how long each query cell runs (default 1s).
	Budget time.Duration
	// Workers is the concurrent submitter/reader count (default 8).
	Workers int
	// Population is the query cells' report count (default 4000).
	Population int
	// Shards lists the shard counts to measure (default 1, 2, 4, 8).
	Shards []int
}

func (o *FederationOptions) fill() {
	if o.Updates <= 0 {
		o.Updates = 100000
	}
	if o.Budget <= 0 {
		o.Budget = time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Population <= 0 {
		o.Population = 4000
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4, 8}
	}
}

// FederationIDs returns the benchmark population: the TeraGrid shape (40
// sites × 26 probes) whose site prefixes the ring spreads over shards.
func FederationIDs() []branch.ID {
	ids := make([]branch.ID, 0, 40*26)
	for site := 0; site < 40; site++ {
		for probe := 0; probe < 26; probe++ {
			ids = append(ids, branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", probe, site)))
		}
	}
	return ids
}

// NewFederatedDepots builds n depots (on the default cache, as a shard
// server runs) and the ring that partitions branches across them — the exact placement a production
// `-federate` router computes, driven in-process.
func NewFederatedDepots(n int) ([]*depot.Depot, *federation.Ring) {
	depots := make([]*depot.Depot, n)
	names := make([]string, n)
	for i := range depots {
		depots[i] = depot.New(nil)
		names[i] = fmt.Sprintf("shard%d", i)
	}
	return depots, federation.NewRing(names, federation.RingOptions{})
}

// federationIngestCell measures steady-state ingest through the full
// controller → envelope → ring → shard-depot path.
func federationIngestCell(shards, workers, updates int) (cellStats, error) {
	depots, ring := NewFederatedDepots(shards)
	backends := make([]controller.DepotClient, len(depots))
	for i, d := range depots {
		backends[i] = d
	}
	var dc controller.DepotClient
	if shards == 1 {
		dc = backends[0]
	} else {
		sd, err := controller.NewShardedDepotFunc(backends, ring.OwnerIndex)
		if err != nil {
			return cellStats{}, err
		}
		dc = sd
	}
	ctl := controller.New(dc, controller.Options{Mode: envelope.Attachment, MaxResponses: 256})
	data := loadgen.MustPremadeReport(9257)
	ids := FederationIDs()
	for _, id := range ids {
		if _, err := ctl.Submit(id, "loadgen", data); err != nil {
			return cellStats{}, err
		}
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	lat := newLatencyTracker(workers, updates/workers+1)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > updates {
					return
				}
				opStart := time.Now()
				if _, serr := ctl.Submit(ids[i%len(ids)], "loadgen", data); serr != nil {
					errOnce.Do(func() { err = serr })
					return
				}
				lat.observe(w, time.Since(opStart))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err != nil {
		return cellStats{}, err
	}
	p50, p95, p99 := lat.percentiles()
	return cellStats{OpsPerSec: float64(updates) / elapsed.Seconds(), P50: p50, P95: p95, P99: p99}, nil
}

// federationQueryCell measures exact-branch reads routed to the owning
// shard — the query tier's owner-forward path, which a deep federated
// /cache request resolves to without any fan-out. Each shard cache holds
// exactly the ring's slice of the population.
func federationQueryCell(shards, readers, population int, budget time.Duration) (cellStats, error) {
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
	}
	ring := federation.NewRing(names, federation.RingOptions{})
	ids := queryBenchPopulation(population)
	data := loadgen.MustPremadeReport(851)
	caches := make([]*depot.IndexedCache, shards)
	for i := range caches {
		caches[i] = depot.NewIndexedCache()
	}
	for _, id := range ids {
		if _, err := caches[ring.OwnerIndex(id)].Update(id, data); err != nil {
			return cellStats{}, err
		}
	}
	var (
		next    atomic.Int64
		done    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	lat := newLatencyTracker(readers, 4096)
	start := time.Now()
	deadline := start.Add(budget)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				id := ids[i%len(ids)]
				// The site-level prefix is the ring's affinity key, so the
				// whole answer lives on one shard — the owner-forward path.
				path := id.Path()
				prefix := branch.ID{}
				for _, p := range path[:2] {
					prefix = prefix.Child(p.Name, p.Value)
				}
				opStart := time.Now()
				stored, qerr := caches[ring.OwnerIndex(prefix)].Reports(prefix)
				if qerr != nil {
					errOnce.Do(func() { err = qerr })
					return
				}
				if len(stored) == 0 {
					errOnce.Do(func() { err = fmt.Errorf("reports %s: no data", prefix) })
					return
				}
				lat.observe(w, time.Since(opStart))
				done.Add(1)
				if time.Now().After(deadline) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err != nil {
		return cellStats{}, err
	}
	p50, p95, p99 := lat.percentiles()
	return cellStats{OpsPerSec: float64(done.Load()) / elapsed.Seconds(), P50: p50, P95: p95, P99: p99}, nil
}

// Federation runs the scaling experiment: ingest and owner-routed query
// throughput at each shard count, with speedups against the 1-shard
// single-depot baseline.
func Federation(opt FederationOptions) Result {
	opt.fill()
	return timed("federation", "Federated multi-depot scaling: throughput vs shard count", func(r *Result) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-8s %-8s %-9s %14s %10s %10s %10s %10s\n",
			"op", "shards", "workers", "ops/sec", "speedup", "p50µs", "p95µs", "p99µs")
		var ingestBase, queryBase float64
		for _, shards := range opt.Shards {
			cell, err := federationIngestCell(shards, opt.Workers, opt.Updates)
			if err != nil {
				r.Text = "error: " + err.Error()
				return
			}
			if ingestBase == 0 {
				ingestBase = cell.OpsPerSec
			}
			speedup := cell.OpsPerSec / ingestBase
			fmt.Fprintf(&sb, "%-8s %-8d %-9d %14.0f %9.2fx %10.1f %10.1f %10.1f\n",
				"ingest", shards, opt.Workers, cell.OpsPerSec, speedup, cell.P50, cell.P95, cell.P99)
			m := cell.metric("ingest", map[string]string{
				"shards": fmt.Sprint(shards), "workers": fmt.Sprint(opt.Workers),
			})
			m.Value, m.ValueUnit = speedup, "x-vs-single-depot"
			r.Metrics = append(r.Metrics, m)
		}
		for _, shards := range opt.Shards {
			cell, err := federationQueryCell(shards, opt.Workers, opt.Population, opt.Budget)
			if err != nil {
				r.Text = "error: " + err.Error()
				return
			}
			if queryBase == 0 {
				queryBase = cell.OpsPerSec
			}
			speedup := cell.OpsPerSec / queryBase
			fmt.Fprintf(&sb, "%-8s %-8d %-9d %14.0f %9.2fx %10.1f %10.1f %10.1f\n",
				"query", shards, opt.Workers, cell.OpsPerSec, speedup, cell.P50, cell.P95, cell.P99)
			m := cell.metric("query", map[string]string{
				"shards": fmt.Sprint(shards), "workers": fmt.Sprint(opt.Workers),
			})
			m.Value, m.ValueUnit = speedup, "x-vs-single-depot"
			r.Metrics = append(r.Metrics, m)
		}
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"every shard depot runs on the indexed cache, the depot's default: ingest cells through depot.New(nil), query cells on depot.NewIndexedCache directly",
			"placement is the production consistent-hash ring (256 virtual nodes per shard, branch-prefix affinity depth 2), driven in-process — the same partition a -federate router computes",
			"1-shard rows are the single-depot baseline (1.00x); an indexed insert or prefix read costs the same whatever the document size, so shards can only add what per-depot locks free up — the stream-cache artifact this replaces also gained from each shard's document being ~1/N the size",
			"ingest runs the full controller → envelope → depot path with 9257-byte reports over the TeraGrid population (40 sites × 26 probes)",
			"query measures site-prefix Reports routed to the owning shard — the owner-forward path a deep federated request takes (the site prefix is exactly the ring's affinity key); scatter-merge reads are covered by TestFederatedByteIdentity and the federation smoke test",
			"latency percentiles are per-operation wall times across all workers",
		)
	})
}
