package experiments

import (
	"testing"
	"time"

	"inca/internal/agent"
	"inca/internal/branch"
	"inca/internal/core"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/schedule"
	"inca/internal/simtime"
)

var usageStart = time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC)

// hourlySeries is one hourly series whose runs each take dur.
func hourlySeries(name string, dur, limit time.Duration) agent.Series {
	return agent.Series{
		Reporter: &reporter.Func{
			ReporterName: name,
			Duration:     dur,
			Fn: func(ctx *reporter.Context, rep *report.Report) {
				rep.Body = report.Branch("probe", "x", report.Leaf("ok", "1"))
			},
		},
		Branch: branch.MustParse("probe=" + name),
		Cron:   schedule.MustParseCron("0 * * * *"),
		Limit:  limit,
	}
}

// usageAgent drives a simulated agent over series until target, with
// Figure 7's recorder in its reporters.
func usageAgent(t *testing.T, target time.Duration, series ...agent.Series) (*agent.Agent, *UsageLog) {
	t.Helper()
	spec := agent.Spec{Resource: "login1.test.org", Series: series}
	usage := RecordUsage(&spec)
	clock := simtime.NewSim(usageStart)
	sink := agent.SinkFunc(func(branch.ID, string, []byte) error { return nil })
	a, err := agent.New(spec, clock, sink, agent.Simulated)
	if err != nil {
		t.Fatal(err)
	}
	core.DriveAgents(clock, []*agent.Agent{a}, usageStart.Add(target))
	return a, usage
}

func TestUsageModelIdleVsBusy(t *testing.T) {
	_, usage := usageAgent(t, 2*time.Hour, hourlySeries("probe.busy", 10*time.Minute, 0))
	// During the run (first 10 minutes of each hour) one fork is resident.
	cpu, mem := usage.At(usageStart.Add(time.Hour + 5*time.Minute))
	if mem != daemonMemMB+forkMemMB {
		t.Fatalf("busy mem = %g", mem)
	}
	if cpu <= daemonCPUFrac*100 {
		t.Fatalf("busy cpu = %g", cpu)
	}
	// Idle: only the daemon.
	cpuIdle, memIdle := usage.At(usageStart.Add(time.Hour + 30*time.Minute))
	if memIdle != daemonMemMB {
		t.Fatalf("idle mem = %g", memIdle)
	}
	if cpuIdle >= cpu {
		t.Fatalf("idle cpu %g >= busy cpu %g", cpuIdle, cpu)
	}
}

func TestTrimIntervals(t *testing.T) {
	_, usage := usageAgent(t, 10*time.Hour, hourlySeries("probe.x", time.Minute, 0))
	if before := len(usage.intervals); before != 10 {
		t.Fatalf("intervals = %d", before)
	}
	// Fires happened at hours 1..10; the runs starting at 9:00 and 10:00
	// end after the cutoff and survive.
	usage.TrimBefore(usageStart.Add(9 * time.Hour))
	if after := len(usage.intervals); after != 2 {
		t.Fatalf("after trim = %d, want 2", after)
	}
}

// A run past its limit is still killed by the agent, and the usage model
// holds its fork only until the limit.
func TestUsageModelEndsKilledRunAtLimit(t *testing.T) {
	a, usage := usageAgent(t, 90*time.Minute, hourlySeries("probe.slow", 10*time.Minute, time.Minute))
	if st := a.Stats(); st.Runs != 1 || st.Killed != 1 {
		t.Fatalf("stats = %+v, want one killed run", st)
	}
	if _, mem := usage.At(usageStart.Add(time.Hour + 30*time.Second)); mem != daemonMemMB+forkMemMB {
		t.Fatalf("mem inside the limit = %g", mem)
	}
	if _, mem := usage.At(usageStart.Add(time.Hour + 2*time.Minute)); mem != daemonMemMB {
		t.Fatalf("mem past the limit = %g", mem)
	}
}
