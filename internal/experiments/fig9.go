package experiments

import (
	"fmt"
	"os"
	"strings"

	"inca/internal/branch"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/experiments/ablation"
	"inca/internal/loadgen"
	"inca/internal/stats"
)

// Fig9Options configures the synthetic depot workload experiment.
type Fig9Options struct {
	// UpdatesPerCell is how many steady-state updates to measure per
	// (cache size, report size) point (default 40).
	UpdatesPerCell int
	// Ablations also runs the attachment-envelope, split-cache and
	// DOM-cache variants for the largest configuration.
	Ablations bool
}

// cell measures one (cache size, report size) point: steady-state updates
// through the full controller→envelope→depot path, on a cache pre-filled
// to the target size (Section 5.2.2's methodology). The depot is in this
// process, so the controller is handed it enveloped: the paper's unpack is
// half of what the figure shows.
func fig9Cell(mode envelope.Mode, cache depot.Cache, cacheTarget, reportSize, updates int) (total, insert, unpack stats.Summary, err error) {
	d := depot.New(cache)
	ctl := controller.New(controller.Enveloped(d), controller.Options{Mode: mode})
	const slots = 8 // measurement identifiers holding reportSize entries
	fillTarget := cacheTarget - slots*reportSize
	if fillTarget < 0 {
		fillTarget = 0
	}
	if _, err = loadgen.FillToSize(loadgen.CacheStore{Cache: cache}, fillTarget, 9257); err != nil {
		return
	}
	data := loadgen.MustPremadeReport(reportSize)
	slotID := func(i int) branch.ID {
		return branch.MustParse(fmt.Sprintf("slot=m%02d,size=s%d,vo=synthetic", i%slots, reportSize))
	}
	// Seed the measurement slots so later updates are replacements.
	for i := 0; i < slots; i++ {
		if _, err = ctl.Submit(slotID(i), "loadgen", data); err != nil {
			return
		}
	}
	var totalMs, insertMs, unpackMs []float64
	for i := 0; i < updates; i++ {
		var resp controller.Response
		if resp, err = ctl.Submit(slotID(i), "loadgen", data); err != nil {
			return
		}
		totalMs = append(totalMs, resp.Elapsed.Seconds()*1000)
		insertMs = append(insertMs, resp.Insert.Seconds()*1000)
		unpackMs = append(unpackMs, resp.Unpack.Seconds()*1000)
	}
	return stats.Summarize(totalMs), stats.Summarize(insertMs), stats.Summarize(unpackMs), nil
}

// Fig9 regenerates the depot response-time versus report-size curves for
// each cache size, separating total response time from the cache-insert
// component (the paper's two lines per cache size).
func Fig9(opt Fig9Options) Result {
	if opt.UpdatesPerCell <= 0 {
		opt.UpdatesPerCell = 40
	}
	return timed("fig9", "Depot response and XML-processing time, synthetic workload (cache size × report size)", func(r *Result) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-10s %-12s %12s %12s %12s\n",
			"cache", "report (B)", "total (ms)", "insert (ms)", "unpack (ms)")
		for _, cacheTarget := range loadgen.PaperCacheSizes {
			for _, reportSize := range loadgen.PaperReportSizes {
				total, insert, unpack, err := fig9Cell(envelope.Body, ablation.NewStreamCache(),
					cacheTarget, reportSize, opt.UpdatesPerCell)
				if err != nil {
					r.Text = "error: " + err.Error()
					return
				}
				fmt.Fprintf(&sb, "%-10s %-12d %12.3f %12.3f %12.3f\n",
					fmt.Sprintf("%.1f MB", float64(cacheTarget)/1024/1024),
					reportSize, total.Mean, insert.Mean, unpack.Mean)
			}
		}
		if opt.Ablations {
			sb.WriteString("\nAblations (largest cache, largest report):\n")
			fmt.Fprintf(&sb, "%-40s %12s %12s %12s\n", "variant", "total (ms)", "insert (ms)", "unpack (ms)")
			big := loadgen.PaperCacheSizes[len(loadgen.PaperCacheSizes)-1]
			bigReport := loadgen.PaperReportSizes[len(loadgen.PaperReportSizes)-1]
			tmpDir, err := os.MkdirTemp("", "inca-fig9-*")
			if err != nil {
				r.Text = "error: " + err.Error()
				return
			}
			defer os.RemoveAll(tmpDir)
			variants := []struct {
				name  string
				mode  envelope.Mode
				cache func() (depot.Cache, error)
			}{
				{"body envelope + single cache (paper)", envelope.Body, func() (depot.Cache, error) { return ablation.NewStreamCache(), nil }},
				{"attachment envelope (paper's fix)", envelope.Attachment, func() (depot.Cache, error) { return ablation.NewStreamCache(), nil }},
				{"split cache (paper's fix)", envelope.Body, func() (depot.Cache, error) { return ablation.NewSplitCacheDepth(2), nil }},
				{"DOM cache (design rejected in §3.2.2)", envelope.Body, func() (depot.Cache, error) { return ablation.NewDOMCache(), nil }},
				{"write-through file cache (deployed §3.2.2)", envelope.Body, func() (depot.Cache, error) {
					return ablation.OpenFileCache(tmpDir + "/cache.xml")
				}},
			}
			for _, v := range variants {
				cache, err := v.cache()
				if err != nil {
					r.Text = "error: " + err.Error()
					return
				}
				total, insert, unpack, err := fig9Cell(v.mode, cache, big, bigReport, opt.UpdatesPerCell)
				if err != nil {
					r.Text = "error: " + err.Error()
					return
				}
				fmt.Fprintf(&sb, "%-40s %12.3f %12.3f %12.3f\n", v.name, total.Mean, insert.Mean, unpack.Mean)
			}
		}
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"paper: response time grows with both cache size and report size; unpacking the SOAP body costs ~3 s for the largest reports regardless of cache size",
			"shape to compare: insert time scales with cache size; unpack time scales with report size and is cache-size independent; total = insert + unpack (+archive)",
			"absolute times are 2-4 orders of magnitude below 2004 Java/Axis numbers; the curves' shape is the reproduction target",
		)
	})
}
