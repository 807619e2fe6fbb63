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

// The archive workload the storage experiment and the archive benchmarks
// share: policies, report, branch population and the timed cell.

var archiveBenchStart = time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC)

// ArchiveBenchPolicies returns the workload's policy mix: two value paths
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

// ArchiveBenchReport builds the workload's report: a bandwidth body whose
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

// archiveCell uploads the workload's policies to d and measures updates
// stores of its report over its 64 branches, each op stamping its own copy
// of the template. Callers build d on NullCache so the cell measures the
// archival phase of Store alone: the cache insert is the same whatever the
// archive design and has its own tier (the fig9 and query experiments).
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
	}, nil)
}
