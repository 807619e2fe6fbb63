package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
	"inca/internal/rrd"
)

// The archive-pipeline ablation (ISSUE 3): how much of the ingest hot path
// does archival cost, and what does moving consolidation off it onto async
// workers buy.

// ArchiveOptions configures the archive ablation.
type ArchiveOptions struct {
	// Updates is how many stores each configuration measures (default 4000).
	Updates int
	// Workers is the concurrent submitter count for the parallel rows
	// (default 8; serial rows always use 1).
	Workers int
}

var archiveBenchStart = time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC)

// ArchiveBenchPolicies returns the ablation's policy mix: two value paths
// at two granularities each plus an availability policy — five archives
// per branch, the "several pieces of data ... the same policy" shape the
// paper describes for Section 3.2.2.
func ArchiveBenchPolicies() []depot.Policy {
	pol := func(name, path string, step time.Duration) depot.Policy {
		return depot.Policy{
			Name:   name,
			Prefix: branch.MustParse("vo=tg"),
			Path:   path,
			Archive: rrd.ArchivalPolicy{
				Step: step, Granularity: 2, History: 14 * 24 * time.Hour,
			},
		}
	}
	const lower = "value,statistic=lowerBound,metric=bandwidth"
	const upper = "value,statistic=upperBound,metric=bandwidth"
	return []depot.Policy{
		pol("bw-lower", lower, 10*time.Minute),
		pol("bw-lower-hourly", lower, time.Hour),
		pol("bw-upper", upper, 10*time.Minute),
		pol("bw-upper-hourly", upper, time.Hour),
		pol("availability", "", 10*time.Minute),
	}
}

// ArchiveBenchReport builds the ablation's report: a bandwidth body whose
// two statistics are the archived leaves, padded to roughly the paper's
// 9257-byte Fig 9 size with measurement detail no policy references. The
// returned offset locates the header timestamp (RFC3339, fixed width) for
// ArchiveBenchStamp.
func ArchiveBenchReport() (template []byte, gmtOff int) {
	r := report.New("grid.network.pathload", "1.8", "loadgen", archiveBenchStart)
	pad := strings.Repeat("streamPeriod=0.000213 fleet=9 trend=PCT ", 220)
	r.Body = report.Branch("metric", "bandwidth",
		report.Branch("statistic", "lowerBound",
			report.Leaf("value", "984.99"), report.Leaf("units", "Mbps")),
		report.Branch("statistic", "upperBound",
			report.Leaf("value", "998.67"), report.Leaf("units", "Mbps")),
		report.Branch("detail", "trace", report.Leaf("log", pad)),
	)
	data, err := report.Marshal(r)
	if err != nil {
		panic(err)
	}
	stamp := []byte(archiveBenchStart.UTC().Format(time.RFC3339))
	off := bytes.Index(data, stamp)
	if off < 0 {
		panic("experiments: report template has no timestamp")
	}
	return data, off
}

// ArchiveBenchIDs returns the branch population: n probes spread over the
// vo=tg subtree every policy prefix selects.
func ArchiveBenchIDs(n int) []branch.ID {
	ids := make([]branch.ID, n)
	for i := range ids {
		ids[i] = branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", i%26, i%40))
	}
	return ids
}

// ArchiveBenchStamp copies the template with the i-th store's timestamp
// patched in, so every branch sees a strictly increasing series (RFC3339
// UTC timestamps are fixed-width, so the patch is an in-place overwrite).
func ArchiveBenchStamp(template []byte, gmtOff int, at time.Time) []byte {
	buf := make([]byte, len(template))
	copy(buf, template)
	copy(buf[gmtOff:], at.UTC().Format(time.RFC3339))
	return buf
}

// archiveCell uploads the ablation's policies to d and measures updates
// stores of the ablation's report over its 64 branches, each op stamping
// its own copy of the template; the depot is drained before the clock
// stops. Callers build d on NullCache so the cell measures the archival
// phase of Store alone: the cache insert is the same whatever the archive
// design and has its own tier (the fig9 and query experiments).
func archiveCell(d *depot.Depot, workers, updates int) (cellStats, error) {
	for _, p := range ArchiveBenchPolicies() {
		if err := d.AddPolicy(p); err != nil {
			return cellStats{}, err
		}
	}
	ids := ArchiveBenchIDs(64)
	template, gmtOff := ArchiveBenchReport()
	return runCell(workers, cellStop{ops: updates}, func(i int) error {
		at := archiveBenchStart.Add(time.Duration(i/len(ids)+1) * time.Minute)
		_, err := d.Store(ids[i%len(ids)], ArchiveBenchStamp(template, gmtOff, at))
		return err
	}, func() error { d.Drain(); return nil })
}

// Archive runs the archive-pipeline ablation: sharded streaming
// extraction inline, and the same behind the async worker pool, serially
// and under concurrent submitters.
func Archive(opt ArchiveOptions) Result {
	if opt.Updates <= 0 {
		opt.Updates = 4000
	}
	if opt.Workers <= 0 {
		opt.Workers = 8
	}
	configs := []struct {
		name string
		opts depot.Options
	}{
		{"sharded-sync", depot.Options{}},
		{"sharded-async", depot.Options{AsyncArchive: true}},
	}
	return timed("archive", "Archive pipeline ablation: store throughput vs archival design", func(r *Result) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-18s %-9s %14s %10s\n", "pipeline", "workers", "reports/sec", "speedup")
		var baseline float64
		for _, cfg := range configs {
			for _, workers := range []int{1, opt.Workers} {
				d := depot.NewWithOptions(depot.NullCache{}, cfg.opts)
				cell, err := archiveCell(d, workers, opt.Updates)
				d.Close()
				if err != nil {
					r.Text = "error: " + err.Error()
					return
				}
				if baseline == 0 {
					baseline = cell.OpsPerSec
				}
				fmt.Fprintf(&sb, "%-18s %-9d %14.0f %9.2fx\n", cfg.name, workers, cell.OpsPerSec, cell.OpsPerSec/baseline)
				m := cell.metric("store", map[string]string{
					"pipeline": cfg.name, "workers": fmt.Sprint(workers),
				})
				m.Value, m.ValueUnit = cell.OpsPerSec/baseline, "x-vs-sync"
				r.Metrics = append(r.Metrics, m)
			}
		}
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"baseline (1.00x) is sharded-sync with one submitter: extraction and consolidation inline in Store",
			"five policies match every store (two leaves at two granularities each, plus availability), the Section 3.2.2 \"several pieces of data ... the same policy\" shape",
			"cells run on a null cache, so the measured work is the archival phase of Store alone; the cache insert is identical across configurations and has its own tier (the fig9 and query experiments)",
			"sharded-sync pays extraction inline but only O(extracted paths): the value leaves settle at the top of the body, then the scan jumps to the footer by byte search, detail subtree unread",
			"sharded-async returns after the cache insert and an enqueue; the drain barrier at the end of each cell charges the deferred consolidation to the measurement, so its speedup is real throughput, not deferred work",
			"timestamps advance per store, so consolidation work (not the RRD duplicate-drop fast path) dominates each cell; each op stamps its own copy of the 9 KB template, and that copy is inside its latency",
		)
	})
}
