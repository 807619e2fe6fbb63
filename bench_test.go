// Package inca_test holds the benchmark harness: one testing.B benchmark
// per paper table/figure (regenerating the measured quantity), plus the
// design-choice ablations DESIGN.md §5 calls out. cmd/inca-bench prints the
// full formatted artifacts; these benchmarks time their hot paths.
package inca_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"inca/internal/agent"
	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/catalog"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/experiments"
	"inca/internal/experiments/ablation"
	"inca/internal/gridsim"
	"inca/internal/loadgen"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/rrd"
	"inca/internal/schedule"
	"inca/internal/simtime"
)

var benchStart = time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC)

// --- Table 1: reporter script rendering ---

func BenchmarkTable1ReporterRender(b *testing.B) {
	g := gridsim.NewTeraGrid(1, gridsim.TeraGridOptions{InstallTime: benchStart})
	reporters := experiments.DistinctReporters(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, r := range reporters {
			total += catalog.ScriptLines(r)
		}
		if total == 0 {
			b.Fatal("no lines rendered")
		}
	}
}

// --- Table 2: specification-file construction ---

func BenchmarkTable2DeploymentBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := core.NewTeraGridDeployment(core.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if d.TotalSeries() != 1060 {
			b.Fatalf("series = %d", d.TotalSeries())
		}
	}
}

// --- Table 4 / Figure 8: one hour of full-deployment operation ---

func BenchmarkTable4DeploymentHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := core.NewTeraGridDeployment(core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d.RunUntil(d.Clock.Now().Add(time.Hour), 0, nil)
		if got, _, _ := d.Controller.Counters(); got != 1060 {
			b.Fatalf("accepted = %d", got)
		}
	}
}

// --- Figure 5: evaluation + availability snapshot over a populated cache ---

func BenchmarkFig5SnapshotCycle(b *testing.B) {
	d, err := core.NewTeraGridDeployment(core.Options{Seed: 1, Availability: true})
	if err != nil {
		b.Fatal(err)
	}
	d.RunUntil(d.Clock.Now().Add(time.Hour+time.Minute), 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Clock.Advance(10 * time.Minute)
		if _, err := d.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: bandwidth measurement + archive update ---

func BenchmarkFig6BandwidthMeasurement(b *testing.B) {
	g := gridsim.NewTeraGrid(1, gridsim.TeraGridOptions{InstallTime: benchStart.Add(-24 * time.Hour)})
	src, _ := g.Resource("tg-login1.sdsc.teragrid.org")
	probe := &catalog.BandwidthReporter{Grid: g, Source: src,
		DestHost: "tg-login1.caltech.teragrid.org", Tool: catalog.Pathload}
	d := depot.New(nil)
	if err := d.AddPolicy(depot.Policy{
		Name: "bw", Path: "value,statistic=lowerBound,metric=bandwidth",
		Archive: rrd.ArchivalPolicy{Step: time.Hour, History: 30 * 24 * time.Hour},
	}); err != nil {
		b.Fatal(err)
	}
	id := core.BranchFor(probe.Name(), src.Host, "SDSC")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := benchStart.Add(time.Duration(i+1) * time.Hour)
		rep := probe.Run(&reporter.Context{Hostname: src.Host, Now: at})
		data, err := report.Marshal(rep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Store(id, data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: agent execution + usage sampling ---

func BenchmarkFig7AgentHour(b *testing.B) {
	grid := gridsim.NewTeraGrid(1, gridsim.DefaultTeraGridOptions(benchStart.Add(-30*24*time.Hour)))
	res, _ := grid.Resource("tg-login1.caltech.teragrid.org")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock := simtime.NewSim(benchStart)
		spec, err := core.BuildSpec(grid, res, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		a, err := agent.New(spec, clock, agent.SinkFunc(func(branch.ID, string, []byte) error { return nil }), agent.Simulated)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		target := benchStart.Add(time.Hour)
		for {
			next, ok := a.Scheduler().NextFire()
			if !ok || next.After(target) {
				break
			}
			clock.AdvanceTo(next)
			a.Scheduler().RunPending()
			a.UsageAt(clock.Now())
		}
	}
}

// --- Figure 9: steady-state depot updates per cache size × report size ---

func benchmarkFig9Cell(b *testing.B, cacheBytes, reportSize int) {
	cache := ablation.NewStreamCache() // the paper's depot
	if _, err := loadgen.FillToSize(loadgen.CacheStore{Cache: cache}, cacheBytes, 9257); err != nil {
		b.Fatal(err)
	}
	d := depot.New(cache)
	ctl := controller.New(d, controller.Options{Mode: envelope.Body})
	data := loadgen.MustPremadeReport(reportSize)
	id := branch.MustParse(fmt.Sprintf("slot=bench,size=s%d,vo=synthetic", reportSize))
	if _, err := ctl.Submit(id, "bench", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(reportSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Submit(id, "bench", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Insert(b *testing.B) {
	for _, cacheBytes := range []int{928 * 1024, 5400 * 1024} {
		for _, reportSize := range loadgen.PaperReportSizes {
			b.Run(fmt.Sprintf("cache=%dKB/report=%dB", cacheBytes/1024, reportSize), func(b *testing.B) {
				benchmarkFig9Cell(b, cacheBytes, reportSize)
			})
		}
	}
}

// --- Ablation: SOAP body vs attachment envelope (paper §5.2.2 fix) ---

func benchmarkEnvelopeDecode(b *testing.B, mode envelope.Mode) {
	id := branch.MustParse("slot=bench,vo=synthetic")
	data, err := envelope.Encode(mode, id, loadgen.MustPremadeReport(45527))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := envelope.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if len(env.Report) != 45527 {
			b.Fatal("payload lost")
		}
	}
}

func BenchmarkEnvelopeBodyDecode(b *testing.B)       { benchmarkEnvelopeDecode(b, envelope.Body) }
func BenchmarkEnvelopeAttachmentDecode(b *testing.B) { benchmarkEnvelopeDecode(b, envelope.Attachment) }

// --- Ablation: the stream cache's splice on a generic SAX stack ---
//
// The one cache design `inca-bench -experiment fig9 -ablations` has no cell
// for: the stream cache with every update tokenised by encoding/xml, at the
// paper's 1.5 MB operating point.

func BenchmarkCacheUpdateStreamGenericSAX(b *testing.B) {
	cache := ablation.NewStreamCacheGeneric()
	if _, err := loadgen.FillToSize(loadgen.CacheStore{Cache: cache}, 1500*1024, 9257); err != nil {
		b.Fatal(err)
	}
	data := loadgen.MustPremadeReport(9257)
	id := branch.MustParse("slot=bench,size=s9257,vo=synthetic")
	if _, err := cache.Update(id, data); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Update(id, data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: randomized vs aligned reporter placement (§3.1.3) ---

func benchmarkSchedulePlacement(b *testing.B, randomized bool) {
	// Metric of interest: the worst per-minute burst the controller sees.
	// Reported via b.ReportMetric; the timed work is schedule computation.
	rng := rand.New(rand.NewSource(5))
	specs := make([]*schedule.Spec, 128)
	for i := range specs {
		if randomized {
			specs[i] = schedule.MustEvery(time.Hour, rng)
		} else {
			specs[i] = schedule.MustParseCron("0 * * * *")
		}
	}
	worst := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perMinute := make(map[int]int)
		t := benchStart
		for _, s := range specs {
			next := s.Next(t)
			perMinute[next.Minute()]++
		}
		for _, n := range perMinute {
			if n > worst {
				worst = n
			}
		}
	}
	b.ReportMetric(float64(worst), "worst-burst/min")
}

func BenchmarkPlacementRandomized(b *testing.B) { benchmarkSchedulePlacement(b, true) }
func BenchmarkPlacementAligned(b *testing.B)    { benchmarkSchedulePlacement(b, false) }

// --- Ablation: dependency-aware vs independent scheduling (§6 future work) ---

func BenchmarkSchedulerDependencyBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := simtime.NewSim(benchStart)
		s := schedule.NewScheduler(sim)
		spec := schedule.MustParseCron("0 * * * *")
		prev := ""
		for j := 0; j < 50; j++ {
			name := fmt.Sprintf("e%02d", j)
			var deps []string
			if prev != "" {
				deps = []string{prev}
			}
			if err := s.Add(&schedule.Entry{Name: name, Spec: spec, DependsOn: deps,
				Action: func(time.Time) error { return nil }}); err != nil {
				b.Fatal(err)
			}
			prev = name
		}
		next, _ := s.NextFire()
		sim.AdvanceTo(next)
		if ran := s.RunPending(); ran != 50 {
			b.Fatalf("ran = %d", ran)
		}
	}
}

// --- Component benchmarks ---

func BenchmarkReportMarshal(b *testing.B) {
	r := report.New("grid.network.pathload", "1.0", "h", benchStart)
	r.Body = report.Branch("metric", "bandwidth",
		report.Branch("statistic", "lowerBound", report.Leaf("value", "984.99"), report.Leaf("units", "Mbps")),
		report.Branch("statistic", "upperBound", report.Leaf("value", "998.67"), report.Leaf("units", "Mbps")),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReportParse(b *testing.B) {
	data := loadgen.MustPremadeReport(9257)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRRDUpdate(b *testing.B) {
	db, err := rrd.NewFromPolicy(benchStart, "v", rrd.ArchivalPolicy{
		Step: time.Minute, Granularity: 5, History: 7 * 24 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(benchStart.Add(time.Duration(i+1)*time.Minute), float64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCronNext(b *testing.B) {
	s := schedule.MustParseCron("5-59/10 8-18 * * mon-fri")
	t := benchStart
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = s.Next(t)
		if t.IsZero() {
			b.Fatal("spec exhausted")
		}
	}
}

func BenchmarkAgreementEvaluate(b *testing.B) {
	d, err := core.NewTeraGridDeployment(core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d.RunUntil(d.Clock.Now().Add(time.Hour+time.Minute), 0, nil)
	ag := agreement.TeraGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, err := agreement.Evaluate(ag, d.Depot.Cache(), d.Clock.Now())
		if err != nil {
			b.Fatal(err)
		}
		if status.PiecesVerified() < 900 {
			b.Fatalf("pieces = %d", status.PiecesVerified())
		}
	}
}

func BenchmarkAgreementEvaluateMemoized(b *testing.B) {
	// The §3.2.3 "optimized for common queries" path: repeated Full
	// cycles of a retained Incremental over a mostly-unchanged cache reuse
	// parsed reports.
	d, err := core.NewTeraGridDeployment(core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d.RunUntil(d.Clock.Now().Add(time.Hour+time.Minute), 0, nil)
	inc := agreement.NewIncremental(agreement.TeraGrid())
	if _, _, err := inc.Full(d.Depot.Cache(), d.Clock.Now()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _, err := inc.Full(d.Depot.Cache(), d.Clock.Now())
		if err != nil {
			b.Fatal(err)
		}
		if status.PiecesVerified() < 900 {
			b.Fatalf("pieces = %d", status.PiecesVerified())
		}
	}
}

// --- Archive tier: concurrent stores against the archive path ---
//
// The insert benches above bypass archival (no policies uploaded); these
// measure the store path with five matching policies — the paper's
// Section 3.2.2 archive phase: striped archives with streaming extraction
// inline in Store. The depot runs on NullCache so these benchmarks isolate
// the archival phase of Store — the cache phase has its own tier
// (BenchmarkFig9Insert). The disk cells run the same
// workload on the disk engine (DESIGN.md §5g): every store also appends a
// WAL frame and consolidation lands in paged archive files. OpenFiles is
// sized so the working set (64 branches x 5 policies = 320 archives) stays
// inside the handle LRU — the steady-state configuration, not the
// eviction-thrash one.

func benchmarkArchiveParallel(b *testing.B, open func(*testing.B) *depot.Depot, parallelism int) {
	d := open(b)
	defer d.Close()
	for _, p := range experiments.ArchiveBenchPolicies() {
		if err := d.AddPolicy(p); err != nil {
			b.Fatal(err)
		}
	}
	ids := experiments.ArchiveBenchIDs(64)
	template, gmtOff := experiments.ArchiveBenchReport()
	b.SetBytes(int64(len(template)))
	b.SetParallelism(parallelism)
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			at := benchStart.Add(time.Duration(i/len(ids)+1) * time.Minute)
			data := experiments.ArchiveBenchStamp(template, gmtOff, at)
			if _, err := d.Store(ids[i%len(ids)], data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "reports/sec")
	}
}

func benchmarkArchiveEngines(b *testing.B, parallelism int) {
	b.Run("memory", func(b *testing.B) {
		benchmarkArchiveParallel(b, func(*testing.B) *depot.Depot {
			return depot.New(depot.NullCache{})
		}, parallelism)
	})
	b.Run("disk", func(b *testing.B) {
		benchmarkArchiveParallel(b, func(b *testing.B) *depot.Depot {
			d, err := depot.OpenDisk(depot.DiskOptions{
				Cache: depot.NullCache{}, Dir: b.TempDir(), OpenFiles: 512,
			})
			if err != nil {
				b.Fatal(err)
			}
			return d
		}, parallelism)
	})
}

func BenchmarkArchiveParallel1(b *testing.B)  { benchmarkArchiveEngines(b, 1) }
func BenchmarkArchiveParallel4(b *testing.B)  { benchmarkArchiveEngines(b, 4) }
func BenchmarkArchiveParallel16(b *testing.B) { benchmarkArchiveEngines(b, 16) }
