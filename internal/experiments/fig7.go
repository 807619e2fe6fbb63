package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"inca/internal/agent"
	"inca/internal/branch"
	"inca/internal/core"
	"inca/internal/gridsim"
	"inca/internal/reporter"
	"inca/internal/simtime"
	"inca/internal/stats"
)

func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// Fig7Options scales the agent system-impact experiment.
type Fig7Options struct {
	// Days of virtual observation (default 7, matching the paper's week of
	// `top` sampling at Caltech).
	Days int
	Seed int64
}

// Fig7 regenerates the distributed-controller CPU and memory histograms:
// the Caltech agent (128 hourly reporters) observed for a week with
// samples every 10–11 seconds of virtual time, as in Section 5.1.
func Fig7(opt Fig7Options) Result {
	if opt.Days <= 0 {
		opt.Days = 7
	}
	title := fmt.Sprintf("Distributed controller CPU/memory utilization at Caltech (%d virtual days)", opt.Days)
	return timed("fig7", title, func(r *Result) {
		start := time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC)
		clock := simtime.NewSim(start)
		grid := gridsim.NewTeraGrid(opt.Seed, gridsim.DefaultTeraGridOptions(start.Add(-30*24*time.Hour)))
		res, _ := grid.Resource("tg-login1.caltech.teragrid.org")
		spec, err := core.BuildSpec(grid, res, rand.New(rand.NewSource(opt.Seed+7)))
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		usage := RecordUsage(&spec)
		// The paper measured only the controller process; reports are
		// discarded rather than forwarded.
		sink := agent.SinkFunc(func(branch.ID, string, []byte) error { return nil })
		a, err := agent.New(spec, clock, sink, agent.Simulated)
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		end := start.Add(time.Duration(opt.Days) * 24 * time.Hour)
		var cpu, mem []float64
		// Samples every 10–11 s (alternating), as the paper's top loop did.
		sampleGap := []time.Duration{10 * time.Second, 11 * time.Second}
		nextSample := start
		gapIdx := 0
		for clock.Now().Before(end) {
			// Next event: reporter fire or sample, whichever is sooner.
			target := nextSample
			if nf, ok := a.Scheduler().NextFire(); ok && nf.Before(target) {
				target = nf
			}
			clock.AdvanceTo(target)
			a.Scheduler().RunPending()
			now := clock.Now()
			if !now.Before(nextSample) {
				c, m := usage.At(now)
				// Report per-CPU utilization as the paper does.
				cpu = append(cpu, c/float64(res.Hardware.CPUs))
				mem = append(mem, m)
				nextSample = nextSample.Add(sampleGap[gapIdx])
				gapIdx = 1 - gapIdx
				// Keep the interval log bounded.
				usage.TrimBefore(now.Add(-time.Hour))
			}
		}

		cpuHist, _ := stats.NewHistogram([]float64{0, 2, 4, 6, 8, 10})
		cpuHist.AddAll(cpu)
		memHist, _ := stats.NewHistogram([]float64{0, 20, 40, 60, 80, 107, 150})
		memHist.AddAll(mem)
		cpuSum := stats.Summarize(cpu)
		memSum := stats.Summarize(mem)

		var sb strings.Builder
		fmt.Fprintf(&sb, "(a) CPU utilization (%% per CPU), %d samples\n", len(cpu))
		sb.WriteString(cpuHist.Render(func(lo, hi float64) string {
			return fmt.Sprintf("%g-%g%%", lo, hi)
		}, 50))
		fmt.Fprintf(&sb, "mean %.3f%% per CPU; %.1f%% of samples below 2%% per CPU (paper: 99.7%%)\n\n",
			cpuSum.Mean, 100*stats.FractionBelow(cpu, 2))
		fmt.Fprintf(&sb, "(b) Memory utilization (MB resident), %d samples\n", len(mem))
		sb.WriteString(memHist.Render(func(lo, hi float64) string {
			return fmt.Sprintf("%g-%g MB", lo, hi)
		}, 50))
		fmt.Fprintf(&sb, "mean %.1f MB; %.1f%% of samples below 107 MB (paper: 97.6%%)\n",
			memSum.Mean, 100*stats.FractionBelow(mem, 107))
		st := a.Stats()
		fmt.Fprintf(&sb, "\nreporter executions: %d (%d failures, %d killed)\n", st.Runs, st.Failures, st.Killed)
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"paper: 57,149 samples over a week; average 0.02% CPU per CPU and 35 MB resident (daemon 18 MB + one forked reporter)",
			"shape to compare: CPU mass in the lowest bucket; memory dominated by the daemon-plus-one-fork level with a short tail of overlapping forks",
			"the paper's one-off 1 GB fork-storm spike was a Schedule::Cron bug and is not modeled",
		)
	})
}

// The usage model behind Figure 7 (Section 5.1): the paper's `top` loop
// watched the distributed controller's own process, which held about
// 18 MB, with each forked reporter roughly as much again.
const (
	daemonMemMB = 18
	forkMemMB   = 17
	// daemonCPUFrac is the daemon's own bookkeeping load per CPU.
	daemonCPUFrac = 0.0002
)

// UsageLog is Figure 7's instrument: the execution interval of every
// simulated reporter run, from which it models the distributed
// controller's CPU and memory at any instant. The agent keeps no such
// log; RecordUsage puts it in the reporters the experiment hands it.
type UsageLog struct {
	intervals []execInterval
}

// execInterval is one reporter run as the usage model sees it.
type execInterval struct {
	start, end time.Time
	cpuFrac    float64
}

// RecordUsage wraps every timed reporter in spec so each simulated run is
// logged in the returned UsageLog. A simulated agent asks a timed reporter
// for its run duration once per run, with ctx.Now at the fire time; a run
// past its series' limit is logged as killed at the limit, as the agent
// kills it. Untimed reporters run instantly and occupy nothing.
func RecordUsage(spec *agent.Spec) *UsageLog {
	u := &UsageLog{}
	for i := range spec.Series {
		s := &spec.Series[i]
		if timed, ok := s.Reporter.(reporter.Timed); ok {
			s.Reporter = &usageReporter{Reporter: s.Reporter, timed: timed,
				limit: s.Limit, cpuFrac: cpuFractionFor(s.Reporter.Name()), log: u}
		}
	}
	return u
}

// usageReporter is one series' reporter with its runs logged.
type usageReporter struct {
	reporter.Reporter
	timed   reporter.Timed
	limit   time.Duration
	cpuFrac float64
	log     *UsageLog
}

// RunDuration implements reporter.Timed, logging the run it times.
func (r *usageReporter) RunDuration(ctx *reporter.Context) time.Duration {
	d := r.timed.RunDuration(ctx)
	held := d
	if r.limit > 0 && held > r.limit {
		held = r.limit
	}
	r.log.intervals = append(r.log.intervals, execInterval{start: ctx.Now, end: ctx.Now.Add(held), cpuFrac: r.cpuFrac})
	return d
}

// cpuFractionFor estimates the daemon's own CPU share while a given
// reporter's forked process is alive. The paper's `top` measurements track
// the distributed controller process, not the forks: the daemon only
// bookkeeps (monitors run time, collects output), so per-fork overhead is
// small — larger for chatty probes whose output it must drain.
func cpuFractionFor(name string) float64 {
	switch {
	case strings.Contains(name, ".benchmark."):
		return 0.015
	case strings.Contains(name, ".unit."):
		return 0.008
	case strings.Contains(name, ".network."):
		return 0.002 // probing tools pace packets; the daemon idles
	default:
		return 0.005
	}
}

// At reports the modeled CPU utilization (% of one CPU) and resident
// memory (MB) of the distributed controller at instant t — what the
// paper's week of `top` sampling measured.
func (u *UsageLog) At(t time.Time) (cpuPct, memMB float64) {
	memMB = daemonMemMB
	cpu := daemonCPUFrac
	for _, iv := range u.intervals {
		if !t.Before(iv.start) && t.Before(iv.end) {
			memMB += forkMemMB
			cpu += iv.cpuFrac
		}
	}
	if cpu > 1 {
		cpu = 1
	}
	return cpu * 100, memMB
}

// TrimBefore discards the runs that ended by t, bounding the log during
// long simulations.
func (u *UsageLog) TrimBefore(t time.Time) {
	kept := u.intervals[:0]
	for _, iv := range u.intervals {
		if iv.end.After(t) {
			kept = append(kept, iv)
		}
	}
	u.intervals = kept
}
