package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"inca/internal/agreement"
	"inca/internal/catalog"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/gridsim"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/rrd"
	"inca/internal/stats"
)

// Fig4Options configures the status summary experiment.
type Fig4Options struct {
	Seed int64
	// HTMLPath, when set, also writes the HTML rendering there.
	HTMLPath string
}

// Fig4 regenerates the TeraGrid hosting environment status summary page:
// a short deployment run with injected failures, evaluated against the
// agreement and rendered as the Figure 4 table.
func Fig4(opt Fig4Options) Result {
	return timed("fig4", "TeraGrid hosting environment status summary page", func(r *Result) {
		gridOpt := gridsim.TeraGridOptions{
			InstallTime: time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC),
		}
		d, err := core.NewTeraGridDeployment(core.Options{Seed: opt.Seed, Grid: &gridOpt})
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		start := d.Clock.Now()
		// Inject the kinds of failures the paper's page shows: a failed
		// globus unit test on one resource, a dead gatekeeper on another.
		sdsc, _ := d.Grid.Resource("tg-login1.sdsc.teragrid.org")
		if err := sdsc.BreakPackage("globus", start); err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		ncsa, _ := d.Grid.Resource("tg-login1.ncsa.teragrid.org")
		ncsa.AddOutage(gridsim.Outage{
			Service: "gram-gatekeeper", From: start, To: start.Add(3 * time.Hour),
			Reason: "gatekeeper not responding (connection timed out)",
		})
		d.RunUntil(start.Add(time.Hour+time.Minute), 0, nil)
		status, err := d.Evaluate()
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		r.Text = consumer.SummaryText(status)
		if opt.HTMLPath != "" {
			html, err := consumer.SummaryHTML(status)
			if err == nil {
				if werr := writeFile(opt.HTMLPath, html); werr == nil {
					r.Notes = append(r.Notes, "HTML rendering written to "+opt.HTMLPath)
				}
			}
		}
		r.Notes = append(r.Notes,
			"paper: red/green summary percentages per category with an expanded error list; compare the failing globus unit test and gatekeeper outage rows",
			fmt.Sprintf("%d pieces of data compared and verified (paper: over 900)", status.PiecesVerified()),
		)
	})
}

// Fig5Options scales the availability experiment.
type Fig5Options struct {
	// Days of virtual time (default 3, covering a Monday; the paper shows
	// a full week — pass 7 to match).
	Days int
	Seed int64
	// Resource to plot (default the SDSC login node).
	Resource string
}

// Fig5 regenerates the Grid-availability-over-a-week graph: a deployment
// with Monday maintenance windows and stochastic failures, summary
// percentages archived every ten virtual minutes.
func Fig5(opt Fig5Options) Result {
	if opt.Days <= 0 {
		opt.Days = 3
	}
	if opt.Resource == "" {
		opt.Resource = "tg-login1.sdsc.teragrid.org"
	}
	title := fmt.Sprintf("Grid availability on %s over %d virtual days (10-minute samples)", opt.Resource, opt.Days)
	return timed("fig5", title, func(r *Result) {
		// Start on a Sunday so the window crosses Monday maintenance.
		start := time.Date(2004, 7, 11, 0, 0, 0, 0, time.UTC)
		d, err := core.NewTeraGridDeployment(core.Options{
			Seed:         opt.Seed,
			Start:        start,
			Availability: true,
		})
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		end := start.Add(time.Duration(opt.Days) * 24 * time.Hour)
		var snapErr error
		d.RunUntil(end, 10*time.Minute, func(now time.Time) {
			if _, err := d.Snapshot(); err != nil && snapErr == nil {
				snapErr = err
			}
		})
		if snapErr != nil {
			r.Text = "error: " + snapErr.Error()
			return
		}
		graph, err := consumer.AvailabilityGraph(d.Depot, opt.Resource, agreement.Grid, start, end)
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		series, err := consumer.AvailabilitySeries(d.Depot, opt.Resource, agreement.Grid, start, end)
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		vals, _ := series.Values(consumer.AvailabilityPolicyName)
		mondayVals, otherVals := splitByMondayMaintenance(series, vals)
		var sb strings.Builder
		sb.WriteString(graph)
		fmt.Fprintf(&sb, "\nsamples: %d; mean availability %.1f%%\n", countKnown(vals), meanKnown(vals))
		fmt.Fprintf(&sb, "during Monday maintenance windows: mean %.1f%% over %d samples\n",
			meanKnown(mondayVals), countKnown(mondayVals))
		fmt.Fprintf(&sb, "outside maintenance windows:       mean %.1f%% over %d samples\n",
			meanKnown(otherVals), countKnown(otherVals))
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"paper: availability near 100% with dips during Monday preventative maintenance and isolated system failures",
			"shape to compare: the Monday-window mean drops sharply below the non-maintenance mean",
		)
	})
}

func splitByMondayMaintenance(series *rrd.Series, vals []float64) (monday, other []float64) {
	for i, p := range series.Points {
		if p.Time.Weekday() == time.Monday {
			h := p.Time.Hour()
			if h >= 8 && h < 12 {
				monday = append(monday, vals[i])
				continue
			}
		}
		other = append(other, vals[i])
	}
	return
}

func countKnown(vals []float64) int {
	n := 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			n++
		}
	}
	return n
}

func meanKnown(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Fig6Options configures the bandwidth collection experiment.
type Fig6Options struct {
	// Days of hourly pathload measurements (default 7, as in the paper).
	Days int
	Seed int64
}

// Fig6 regenerates the Pathload bandwidth series from SDSC to Caltech:
// hourly measurements archived through a depot policy and plotted.
func Fig6(opt Fig6Options) Result {
	if opt.Days <= 0 {
		opt.Days = 7
	}
	title := fmt.Sprintf("Pathload bandwidth SDSC → Caltech, hourly over %d days", opt.Days)
	return timed("fig6", title, func(r *Result) {
		start := time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)
		g := gridsim.NewTeraGrid(opt.Seed, gridsim.TeraGridOptions{InstallTime: start.Add(-24 * time.Hour)})
		src, _ := g.Resource("tg-login1.sdsc.teragrid.org")
		const dst = "tg-login1.caltech.teragrid.org"
		d := depot.New(nil)
		if err := d.AddPolicy(depot.Policy{
			Name:    "pathload-lower",
			Path:    "value,statistic=lowerBound,metric=bandwidth",
			Archive: rrd.ArchivalPolicy{Step: time.Hour, Granularity: 1, History: 30 * 24 * time.Hour},
		}); err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		probe := &catalog.BandwidthReporter{Grid: g, Source: src, DestHost: dst, Tool: catalog.Pathload}
		id := core.BranchFor(probe.Name(), src.Host, src.Site.Name)
		end := start.Add(time.Duration(opt.Days) * 24 * time.Hour)
		for at := start.Add(time.Hour); !at.After(end); at = at.Add(time.Hour) {
			rep := probe.Run(&reporter.Context{Hostname: src.Host, Now: at})
			data, err := report.Marshal(rep)
			if err != nil {
				r.Text = "error: " + err.Error()
				return
			}
			if _, err := d.Store(id, data); err != nil {
				r.Text = "error: " + err.Error()
				return
			}
		}
		series, err := d.FetchArchive(id, "pathload-lower", rrd.Average, start, end)
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		graph, err := rrd.Graph(series, "pathload-lower", rrd.GraphOptions{
			Title:  "Bandwidth data measured from Pathload running from SDSC to Caltech",
			YLabel: "Mbps",
			Width:  76, Height: 14,
		})
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		vals, _ := series.Values("pathload-lower")
		s := stats.Summarize(knownOnly(vals))
		var sb strings.Builder
		sb.WriteString(graph)
		fmt.Fprintf(&sb, "\nmeasurements: %d; mean %.1f Mbps, min %.1f, max %.1f\n", s.N, s.Mean, s.Min, s.Max)
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"paper: hourly pathload lower-bound estimates around 990 Mbps with diurnal variation",
			"shape to compare: a stable ~1 Gbps band with a visible daily dip",
		)
	})
}

func knownOnly(vals []float64) []float64 {
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Fig8Options scales the report-size distribution experiment.
type Fig8Options struct {
	// Hours of deployment to replay (default 3).
	Hours int
	Seed  int64
}

// Fig8 regenerates the report-size histogram received by the centralized
// controller.
func Fig8(opt Fig8Options) Result {
	if opt.Hours <= 0 {
		opt.Hours = 3
	}
	title := fmt.Sprintf("Report sizes received by the centralized controller (%d virtual hours)", opt.Hours)
	return timed("fig8", title, func(r *Result) {
		d, err := core.NewTeraGridDeployment(core.Options{Seed: opt.Seed})
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		start := d.Clock.Now()
		d.RunUntil(start.Add(time.Duration(opt.Hours)*time.Hour), 0, nil)
		fig8Body(r, d.Responses())
	})
}

// Fig8FromResponses computes the histogram from an existing response log
// (normally Table 4's), avoiding a second week-long replay in full runs.
func Fig8FromResponses(responses []controller.Response, hours int) Result {
	title := fmt.Sprintf("Report sizes received by the centralized controller (%d virtual hours, shared with Table 4)", hours)
	return timed("fig8", title, func(r *Result) {
		fig8Body(r, responses)
	})
}

func fig8Body(r *Result, responses []controller.Response) {
	h, err := stats.NewHistogram([]float64{0, 4, 10, 20, 30, 40, 50})
	if err != nil {
		r.Text = "error: " + err.Error()
		return
	}
	for _, resp := range responses {
		h.Add(float64(resp.ReportSize) / 1024)
	}
	var sb strings.Builder
	sb.WriteString(h.Render(func(lo, hi float64) string {
		return fmt.Sprintf("%g-%g KB", lo, hi)
	}, 50))
	if frac, ok := h.CumulativeBelow(10); ok {
		fmt.Fprintf(&sb, "\n%.2f%% of reports were smaller than 10 KB (paper: 97.64%%)\n", frac*100)
	}
	r.Text = sb.String()
	r.Notes = append(r.Notes, "shape to compare: overwhelming small-report skew with a thin tail up to ~50 KB")
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}
