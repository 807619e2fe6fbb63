package experiments

import (
	"fmt"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
	"inca/internal/loadgen"
)

// QueryOptions configures the read-path ablation (DESIGN.md §5).
type QueryOptions struct {
	// Budget is how long each measured cell runs (default 300ms).
	Budget time.Duration
	// Readers is the concurrent reader count for the parallel rows
	// (default 8; the serial rows always use 1).
	Readers int
}

// queryBenchPopulation returns the identifiers for a population of
// reports spread TeraGrid-style over 40 sites.
func queryBenchPopulation(reports int) []branch.ID {
	ids := make([]branch.ID, 0, reports)
	probes := (reports + 39) / 40
	for site := 0; site < 40 && len(ids) < reports; site++ {
		for probe := 0; probe < probes && len(ids) < reports; probe++ {
			ids = append(ids, branch.MustParse(fmt.Sprintf("probe=p%03d,site=s%02d,vo=tg", probe, site)))
		}
	}
	return ids
}

// buildQueryCache populates a cache variant. The stream cache is restored
// from the pre-built document one splice per report, each re-streaming the
// whole document: an O(n²) fill, the very behavior this ablation exists to
// show, and outside every measured cell.
func buildQueryCache(name string, ids []branch.ID, dump []byte, data []byte) (depot.Cache, error) {
	switch name {
	case "stream":
		return ablation.LoadStreamDump(dump)
	case "indexed":
		c := depot.NewIndexedCache()
		for _, id := range ids {
			if _, err := c.Update(id, data); err != nil {
				return nil, err
			}
		}
		return c, nil
	default:
		return nil, fmt.Errorf("unknown cache variant %q", name)
	}
}

func exactQueryOp(c depot.Cache, id branch.ID) error {
	sub, ok, err := c.Query(id)
	if err != nil {
		return err
	}
	if !ok || len(sub) == 0 {
		return fmt.Errorf("query %s: no data", id)
	}
	return nil
}

func prefixReportsOp(c depot.Cache, id branch.ID) error {
	// Query the site-level prefix of the identifier: a realistic dashboard
	// fetch of one site's reports.
	path := id.Path()
	prefix := branch.ID{}
	for _, p := range path[:2] {
		prefix = prefix.Child(p.Name, p.Value)
	}
	stored, err := c.Reports(prefix)
	if err != nil {
		return err
	}
	if len(stored) == 0 {
		return fmt.Errorf("reports %s: no data", prefix)
	}
	return nil
}

// Query runs the read-path ablation: exact-branch Query and site-prefix
// Reports throughput over the stream and indexed caches, serially
// and under concurrent readers, at growing cache populations. The flat
// column to watch is indexed exact-query latency from 100 to 10k reports
// while the stream cache's falls off linearly with document size.
func Query(opt QueryOptions) Result {
	if opt.Budget <= 0 {
		opt.Budget = 300 * time.Millisecond
	}
	if opt.Readers <= 0 {
		opt.Readers = 8
	}
	return timed("query", "Indexed read path ablation: query throughput vs cache design and size", func(r *Result) {
		data := loadgen.MustPremadeReport(851)
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-10s %-8s %-9s %-8s %14s %12s\n",
			"cache", "reports", "readers", "op", "ops/sec", "µs/op")
		for _, population := range []int{100, 1000, 10000} {
			ids := queryBenchPopulation(population)
			// One canonical document for the population, built in O(n)
			// through the indexed cache.
			seed := depot.NewIndexedCache()
			for _, id := range ids {
				if _, err := seed.Update(id, data); err != nil {
					r.Text = "error: " + err.Error()
					return
				}
			}
			dump := seed.Dump()
			for _, name := range []string{"stream", "indexed"} {
				c, err := buildQueryCache(name, ids, dump, data)
				if err != nil {
					r.Text = "error: " + err.Error()
					return
				}
				for _, readers := range []int{1, opt.Readers} {
					for _, mix := range []struct {
						name string
						op   func(depot.Cache, branch.ID) error
					}{
						{"query", exactQueryOp},
						{"reports", prefixReportsOp},
					} {
						cell, err := runCell(readers, cellStop{budget: opt.Budget}, func(i int) error {
							return mix.op(c, ids[i%len(ids)])
						}, nil)
						if err != nil {
							r.Text = "error: " + err.Error()
							return
						}
						fmt.Fprintf(&sb, "%-10s %-8d %-9d %-8s %14.0f %12.2f\n",
							name, population, readers, mix.name, cell.OpsPerSec, 1e6/cell.OpsPerSec*float64(readers))
						r.Metrics = append(r.Metrics, cell.metric(mix.name, map[string]string{
							"cache": name, "reports": fmt.Sprint(population), "readers": fmt.Sprint(readers),
						}))
					}
				}
			}
		}
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"851-byte reports; population spread over 40 sites (site-prefix Reports touches ~1/40 of the cache)",
			"stream answers every query by SAX-scanning the whole document, so its per-op cost grows linearly with the cache (the §5.2 scaling wall on the read side); its fill (one splice per report, itself quadratic) is outside the measured cells",
			"indexed resolves the branch through its in-memory index and serializes only the requested subtree: exact-query cost stays flat from 100 to 10k reports",
			"µs/op is wall-clock normalized by reader count (per-reader latency)",
		)
	})
}
