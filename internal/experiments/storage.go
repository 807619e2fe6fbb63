package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/rrd"
)

// The storage-engine comparison (DESIGN.md §5f): the in-memory depot vs
// the disk engine (paged archive files behind a bounded handle LRU, plus
// a write-ahead log) across three phases — report ingest through the
// archive path, raw archive updates as the series population grows
// 10x, and restart recovery (WAL replay vs checkpoint vs snapshot). The
// question the disk engine answers is the paper's depot-scalability one:
// memory stays flat no matter how many series accumulate, at a bounded
// per-operation cost.

// StorageOptions configures the storage-engine comparison.
type StorageOptions struct {
	// Updates is how many report stores the ingest cells measure
	// (default 3000).
	Updates int
	// Workers is the concurrent submitter count (default 4).
	Workers int
	// Series are the archive population scales (default 10000, 100000).
	Series []int
	// Dir is the scratch directory for the disk cells (default a fresh
	// temp directory, removed afterwards).
	Dir string
}

var storageStart = time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC)

// storageScalePolicy is the population policy: manual-only so updates
// bypass report parsing, with a small ring (one hour at one minute) so
// the cells measure engine overhead rather than ring size.
func storageScalePolicy() depot.Policy {
	return depot.Policy{
		Name:       "scale",
		Prefix:     branch.MustParse("vo=scale"),
		ManualOnly: true,
		Archive: rrd.ArchivalPolicy{
			Step: time.Minute, Granularity: 2, History: time.Hour,
		},
	}
}

func storageSeriesIDs(n int) []branch.ID {
	ids := make([]branch.ID, n)
	for i := range ids {
		ids[i] = branch.MustParse(fmt.Sprintf("probe=x%06d,site=s%02d,vo=scale", i, i%40))
	}
	return ids
}

// storageUpdatePass drives one ArchiveUpdate per series through the
// manual-only scale policy and returns the measured cell.
func storageUpdatePass(d *depot.Depot, ids []branch.ID, at time.Time, workers int) (cellStats, error) {
	return runCell(workers, cellStop{ops: len(ids)}, func(i int) error {
		return d.ArchiveUpdate(ids[i-1], "scale", at, float64((i-1)%100))
	}, nil)
}

// heapMB returns the live heap after a full collection — the experiment's
// resident-memory proxy (no /proc scraping, works everywhere).
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Storage runs the storage-engine comparison.
func Storage(opt StorageOptions) Result {
	if opt.Updates <= 0 {
		opt.Updates = 3000
	}
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if len(opt.Series) == 0 {
		opt.Series = []int{10_000, 100_000}
	}
	return timed("storage", "Storage engines: in-memory depot vs paged files + WAL", func(r *Result) {
		scratch := opt.Dir
		if scratch == "" {
			var err error
			if scratch, err = os.MkdirTemp("", "inca-storage-*"); err != nil {
				r.Text = "error: " + err.Error()
				return
			}
			defer os.RemoveAll(scratch)
		}
		var sb strings.Builder
		fail := func(err error) { r.Text = sb.String() + "\nerror: " + err.Error() }
		fmt.Fprintf(&sb, "%-20s %-7s %9s %12s %8s %8s %8s %9s\n",
			"phase", "backend", "series", "ops/sec", "p50us", "p95us", "p99us", "heapMB")
		row := func(phase, backend string, series int, cell cellStats, heap float64) {
			scale := "-"
			if series > 0 {
				scale = fmt.Sprint(series)
			}
			heapCol := "-"
			if heap > 0 {
				heapCol = fmt.Sprintf("%.1f", heap)
			}
			fmt.Fprintf(&sb, "%-20s %-7s %9s %12.0f %8.0f %8.0f %8.0f %9s\n",
				phase, backend, scale, cell.OpsPerSec, cell.P50, cell.P95, cell.P99, heapCol)
			m := cell.metric(phase, map[string]string{"backend": backend})
			if series > 0 {
				m.Labels["series"] = fmt.Sprint(series)
			}
			if heap > 0 {
				m.Value, m.ValueUnit = heap, "heap-mb"
			}
			r.Metrics = append(r.Metrics, m)
		}
		recoveryRow := func(phase, backend string, series int, elapsed time.Duration) {
			fmt.Fprintf(&sb, "%-20s %-7s %9d %12s %8s %8s %8s %9s\n",
				phase, backend, series, fmt.Sprintf("%.0fms", float64(elapsed)/float64(time.Millisecond)), "-", "-", "-", "-")
			r.Metrics = append(r.Metrics, Metric{
				Name:   phase,
				Labels: map[string]string{"backend": backend, "series": fmt.Sprint(series)},
				Value:  float64(elapsed) / float64(time.Millisecond), ValueUnit: "ms",
			})
		}

		// --- ingest: the report store path, five matching policies ---
		mem := depot.NewWithOptions(depot.NullCache{}, depot.Options{})
		cell, err := archiveCell(mem, opt.Workers, opt.Updates)
		mem.Close()
		if err != nil {
			fail(err)
			return
		}
		row("ingest", "memory", 0, cell, 0)
		disk, err := depot.OpenDisk(depot.DiskOptions{
			Cache: depot.NullCache{}, Dir: filepath.Join(scratch, "ingest"), OpenFiles: 512,
		})
		if err != nil {
			fail(err)
			return
		}
		cell, err = archiveCell(disk, opt.Workers, opt.Updates)
		disk.Close()
		if err != nil {
			fail(err)
			return
		}
		row("ingest", "disk", 0, cell, 0)

		// --- archive scale: create + steady-state update, growing 10x ---
		diskHeap := map[int]float64{}
		for _, scale := range opt.Series {
			ids := storageSeriesIDs(scale)
			for _, backend := range []string{"memory", "disk"} {
				var d *depot.Depot
				var err error
				dir := filepath.Join(scratch, fmt.Sprintf("%s-%d", backend, scale))
				if backend == "disk" {
					d, err = depot.OpenDisk(depot.DiskOptions{
						Cache: depot.NullCache{}, Dir: dir, OpenFiles: 64,
					})
				} else {
					d = depot.NewWithOptions(depot.NullCache{}, depot.Options{})
				}
				if err != nil {
					fail(err)
					return
				}
				if err := d.AddPolicy(storageScalePolicy()); err != nil {
					fail(err)
					return
				}
				// Heap is reported as growth over this baseline, so the id
				// population built by the harness itself is not charged to
				// the engine under test.
				baseHeap := heapMB()
				cell, err := storageUpdatePass(d, ids, storageStart, opt.Workers)
				if err != nil {
					fail(err)
					return
				}
				row("archive-create", backend, scale, cell, 0)
				cell, err = storageUpdatePass(d, ids, storageStart.Add(time.Minute), opt.Workers)
				if err != nil {
					fail(err)
					return
				}
				heap := heapMB() - baseHeap
				if heap < 0.1 {
					heap = 0.1
				}
				row("archive-update", backend, scale, cell, heap)
				if backend == "disk" {
					diskHeap[scale] = heap
				}

				// --- restart recovery over the population just built ---
				if backend == "memory" {
					snap := filepath.Join(scratch, fmt.Sprintf("snap-%d", scale))
					f, err := os.Create(snap)
					if err == nil {
						err = d.WriteSnapshot(f)
						if cerr := f.Close(); err == nil {
							err = cerr
						}
					}
					if err != nil {
						fail(err)
						return
					}
					d.Close()
					f, err = os.Open(snap)
					if err != nil {
						fail(err)
						return
					}
					t0 := time.Now()
					restored, err := depot.ReadSnapshot(f)
					elapsed := time.Since(t0)
					f.Close()
					if err != nil {
						fail(err)
						return
					}
					if got := restored.Stats().Archives; got != scale {
						fail(fmt.Errorf("snapshot recovery: %d archives, want %d", got, scale))
						return
					}
					restored.Close()
					recoveryRow("recover-snapshot", backend, scale, elapsed)
					continue
				}
				d.Close()
				// Un-checkpointed close: the next open replays the full WAL.
				t0 := time.Now()
				d, err = depot.OpenDisk(depot.DiskOptions{Cache: depot.NullCache{}, Dir: dir, OpenFiles: 64})
				elapsed := time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				if got := d.Stats().Archives; got != scale {
					fail(fmt.Errorf("WAL recovery: %d archives, want %d", got, scale))
					return
				}
				recoveryRow("recover-wal", backend, scale, elapsed)
				// Checkpoint, then measure the fast path: no replay at all.
				if err := d.Checkpoint(); err != nil {
					fail(err)
					return
				}
				d.Close()
				t0 = time.Now()
				d, err = depot.OpenDisk(depot.DiskOptions{Cache: depot.NullCache{}, Dir: dir, OpenFiles: 64})
				elapsed = time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				if got := d.Stats().Archives; got != scale {
					fail(fmt.Errorf("checkpoint recovery: %d archives, want %d", got, scale))
					return
				}
				recoveryRow("recover-checkpoint", backend, scale, elapsed)
				d.Close()
				// The population is measured; reclaim the scratch space so
				// consecutive scales do not accumulate on disk.
				os.RemoveAll(dir)
			}
		}
		r.Text = sb.String()
		if len(opt.Series) >= 2 {
			lo, hi := opt.Series[0], opt.Series[len(opt.Series)-1]
			if diskHeap[lo] > 0 {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"disk-engine heap grew %.2fx while the series population grew %.0fx (%d -> %d series): resident state is the open-handle LRU, not the rings or a per-series index",
					diskHeap[hi]/diskHeap[lo], float64(hi)/float64(lo), lo, hi))
			}
		}
		r.Notes = append(r.Notes,
			"ingest cells run the full store path (cache bypassed via NullCache, five matching archive policies); disk adds a WAL append per store and paged ring writes per consolidation",
			"archive cells use a manual-only policy (no report parse) so the measured work is the engine itself; create pays file initialization + LRU eviction fsyncs, update is the steady state",
			"the heap column is live-heap growth over the pre-population baseline (full GC before each reading) — the disk engine keeps rings on disk and no per-series index in memory, so it stays flat as series grow 10x while the memory depot grows linearly",
			"recover-wal replays every logged update through the idempotent apply path; recover-checkpoint starts from the folded image and replays nothing; recover-snapshot is the memory depot's full-image read",
			"disk cells fsync on checkpoint and handle eviction, not per append: a process crash loses nothing acknowledged (page cache survives), a machine crash can lose up to one checkpoint interval — DESIGN.md §5f",
		)
	})
}
