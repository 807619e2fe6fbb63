package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"inca/internal/catalog"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/gridsim"
	"inca/internal/reporter"
	"inca/internal/stats"
)

// referenceGrid builds the simulated TeraGrid used by catalog-enumeration
// experiments (no failures needed).
func referenceGrid() *gridsim.Grid {
	return gridsim.NewTeraGrid(1, gridsim.TeraGridOptions{
		InstallTime: time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC),
	})
}

// DistinctReporters enumerates the distinct reporter programs deployed to
// the simulated TeraGrid — one per template × package/service/tool, with
// destination hosts as run-time arguments, as in the real reporter
// repository behind Table 1.
func DistinctReporters(g *gridsim.Grid) []reporter.Reporter {
	src, _ := g.Resource("tg-viz-login1.uc.teragrid.org") // the richest host
	dst, _ := g.Resource("tg-login1.caltech.teragrid.org")
	var out []reporter.Reporter
	var pkgs []string
	for _, set := range []map[string]string{
		gridsim.GridPackages, gridsim.DevelopmentPackages, gridsim.ClusterPackages,
		gridsim.ExtendedPackages, gridsim.VizPackages,
	} {
		for name := range set {
			pkgs = append(pkgs, name)
		}
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		out = append(out,
			&catalog.VersionReporter{Resource: src, Package: pkg},
			&catalog.UnitTestReporter{Resource: src, Package: pkg},
		)
	}
	out = append(out,
		&catalog.EnvReporter{Resource: src},
		&catalog.SoftEnvReporter{Resource: src},
	)
	for _, svc := range gridsim.TeraGridServices {
		out = append(out,
			&catalog.ServiceReporter{Resource: src, Service: svc.Name},
			&catalog.CrossSiteReporter{Grid: g, Source: src, DestHost: dst.Host, Service: svc.Name},
		)
	}
	for _, tool := range []catalog.NetworkTool{catalog.Pathload, catalog.Pathchirp, catalog.Spruce} {
		out = append(out, &catalog.BandwidthReporter{Grid: g, Source: src, DestHost: dst.Host, Tool: tool})
	}
	for _, k := range []string{"flops", "membw", "io", "suite"} {
		out = append(out, &catalog.BenchmarkReporter{Resource: src, Kind: k})
	}
	return out
}

// Table1 regenerates the reporter-size distribution: every distinct
// deployed reporter rendered to a standalone script, line counts bucketed
// exactly as in the paper's Table 1.
func Table1() Result {
	return timed("table1", "Reporter sizes for TeraGrid deployment (lines of code)", func(r *Result) {
		g := referenceGrid()
		reporters := DistinctReporters(g)
		buckets := map[[2]int]int{}
		var keys [][2]int
		bucketFor := func(lines int) [2]int {
			lo := (lines / 50) * 50
			return [2]int{lo, lo + 50}
		}
		for _, rep := range reporters {
			b := bucketFor(catalog.ScriptLines(rep))
			if buckets[b] == 0 {
				keys = append(keys, b)
			}
			buckets[b]++
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i][0] < keys[j][0] })
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-16s %s\n", "Lines of Code", "Number of Reporters")
		total := 0
		for _, k := range keys {
			fmt.Fprintf(&sb, "%-16s %d\n", fmt.Sprintf("%d-%d", k[0], k[1]), buckets[k])
			total += buckets[k]
		}
		fmt.Fprintf(&sb, "%-16s %d\n", "Total", total)
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"paper: 130 reporters, 106 of them under 50 lines, with a long tail to 1,650 lines",
			fmt.Sprintf("reproduction: %d distinct reporter programs; destination hosts are run-time arguments here, so the catalog is smaller than the paper's per-script repository — the shape (dominant <50-line bucket, benchmark giants above 1,000 lines) is the comparison target", total),
		)
	})
}

// Table2 regenerates the reporters-per-hour-per-resource table.
func Table2() Result {
	return timed("table2", "Inca reporters executing per hour on TeraGrid systems", func(r *Result) {
		d, err := core.NewTeraGridDeployment(core.Options{Seed: 1})
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-8s %-34s %s\n", "Site", "Machine", "Number of Reporters")
		total := 0
		for _, h := range gridsim.TeraGridHosts {
			a, _ := d.AgentFor(h.Host)
			fmt.Fprintf(&sb, "%-8s %-34s %d\n", h.Site, h.Host, a.SeriesCount())
			total += a.SeriesCount()
		}
		fmt.Fprintf(&sb, "%-8s %-34s %d\n", "", "Total", total)
		r.Text = sb.String()
		r.Notes = append(r.Notes, "paper total: 1060; per-host counts reproduced exactly by the specification builder (see core.BuildSpec)")
	})
}

// Table3 lists machine characteristics: the simulated testbed machines
// from the paper plus the host actually running this reproduction.
func Table3() Result {
	return timed("table3", "Characteristics of the machines used in impact and performance experiments", func(r *Result) {
		g := referenceGrid()
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-34s %-5s %-18s %-10s %s\n", "Hostname", "CPUs", "Processor Type", "CPU (MHz)", "Memory (GB)")
		// The paper's two machines.
		fmt.Fprintf(&sb, "%-34s %-5d %-18s %-10d %.1f\n", "inca.sdsc.edu (simulated)", 4, "Intel Xeon", 2457, 2.0)
		if caltech, ok := g.Resource("tg-login1.caltech.teragrid.org"); ok {
			hw := caltech.Hardware
			fmt.Fprintf(&sb, "%-34s %-5d %-18s %-10d %.1f\n", caltech.Host+" (simulated)", hw.CPUs, hw.Processor, hw.CPUMHz, hw.MemoryGB)
		}
		// The machine this reproduction runs on.
		fmt.Fprintf(&sb, "%-34s %-5d %-18s %-10s %s\n",
			hostname()+" (this run)", runtime.NumCPU(), runtime.GOARCH, cpuMHz(), memGB())
		r.Text = sb.String()
		r.Notes = append(r.Notes, "absolute timings in Table 4 / Figure 9 reflect the 'this run' row, not 2004 hardware")
	})
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

func cpuMHz() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "n/a"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "cpu MHz") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "n/a"
}

func memGB() string {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return "n/a"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "MemTotal:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				var kb float64
				fmt.Sscanf(fields[1], "%f", &kb)
				return fmt.Sprintf("%.1f", kb/1024/1024)
			}
		}
	}
	return "n/a"
}

// Table4Options scales the depot response-time experiment.
type Table4Options struct {
	// Hours of virtual deployment time to replay (default 6; the paper
	// observed a full week — pass 168 to match).
	Hours int
	Seed  int64
}

// Table4 regenerates the depot response-time statistics by report-size
// bucket from a replayed deployment window.
func Table4(opt Table4Options) Result {
	r, _ := Table4WithResponses(opt)
	return r
}

// Table4WithResponses additionally returns the deployment's response log so
// Figure 8 can be computed from the same replay instead of a second one
// (see Fig8FromResponses).
func Table4WithResponses(opt Table4Options) (Result, []controller.Response) {
	if opt.Hours <= 0 {
		opt.Hours = 6
	}
	var responses []controller.Response
	title := fmt.Sprintf("Depot response-time statistics over %d virtual hours of TeraGrid operation", opt.Hours)
	result := timed("table4", title, func(r *Result) {
		d, err := core.NewTeraGridDeployment(core.Options{Seed: opt.Seed})
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		start := d.Clock.Now()
		d.RunUntil(start.Add(time.Duration(opt.Hours)*time.Hour), 0, nil)
		responses = d.Responses()

		// Buckets from Table 4 (KB).
		edges := []int{0, 4, 10, 20, 30, 40, 50}
		perBucket := make([][]float64, len(edges)-1)
		for _, resp := range responses {
			kb := resp.ReportSize / 1024
			for i := 0; i < len(edges)-1; i++ {
				if kb >= edges[i] && kb < edges[i+1] {
					perBucket[i] = append(perBucket[i], resp.Elapsed.Seconds()*1000) // ms
					break
				}
			}
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "Response time stats (ms)  ")
		for i := 0; i < len(edges)-1; i++ {
			fmt.Fprintf(&sb, "%10s", fmt.Sprintf("%d-%d KB", edges[i], edges[i+1]))
		}
		sb.WriteString("\n")
		row := func(name string, f func(stats.Summary) float64) {
			fmt.Fprintf(&sb, "%-26s", name)
			for i := range perBucket {
				if len(perBucket[i]) == 0 {
					fmt.Fprintf(&sb, "%10s", "-")
					continue
				}
				fmt.Fprintf(&sb, "%10.3f", f(stats.Summarize(perBucket[i])))
			}
			sb.WriteString("\n")
		}
		row("mean", func(s stats.Summary) float64 { return s.Mean })
		row("std", func(s stats.Summary) float64 { return s.Std })
		row("min", func(s stats.Summary) float64 { return s.Min })
		row("max", func(s stats.Summary) float64 { return s.Max })
		row("median", func(s stats.Summary) float64 { return s.Median })
		fmt.Fprintf(&sb, "%-26s", "number of updates")
		for i := range perBucket {
			fmt.Fprintf(&sb, "%10d", len(perBucket[i]))
		}
		sb.WriteString("\n\n")

		// The Section 5.2.1 aggregates.
		var totalBytes int64
		for _, resp := range responses {
			totalBytes += int64(resp.ReportSize)
		}
		mins := float64(opt.Hours) * 60
		fmt.Fprintf(&sb, "reports received: %d (%.2f reports/min)\n", len(responses), float64(len(responses))/mins)
		fmt.Fprintf(&sb, "data received: %.2f MB (%.2f KB/min)\n", float64(totalBytes)/1024/1024, float64(totalBytes)/1024/mins)
		fmt.Fprintf(&sb, "steady-state cache size: %.2f MB (%d entries)\n",
			float64(d.Depot.Cache().Size())/1024/1024, d.Depot.Cache().Count())
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"paper (1 week): 151,955 reports at 15.07/min, 26.35 KB/min, 1.5 MB cache; response mean 1.4-2.9 s on shared 2004 hardware",
			"shape to compare: response time grows with report size; the small-report bucket dominates update counts",
			fmt.Sprintf("this run replays %d virtual hours at the same 1,060 reports/hour rate", opt.Hours),
		)
	})
	return result, responses
}
