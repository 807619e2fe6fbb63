package agent

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/schedule"
	"inca/internal/simtime"
)

var t0 = time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC)

type collector struct {
	mu   sync.Mutex
	msgs []struct {
		id   branch.ID
		host string
		data []byte
	}
	fail bool
}

func (c *collector) Submit(id branch.ID, host string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail {
		return fmt.Errorf("sink down")
	}
	c.msgs = append(c.msgs, struct {
		id   branch.ID
		host string
		data []byte
	}{id, host, data})
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func okReporter(name string, dur time.Duration) reporter.Reporter {
	return &reporter.Func{
		ReporterName: name,
		Duration:     dur,
		Fn: func(ctx *reporter.Context, rep *report.Report) {
			rep.Body = report.Branch("probe", "x", report.Leaf("ok", "1"))
		},
	}
}

func failReporter(name string) reporter.Reporter {
	return &reporter.Func{
		ReporterName: name,
		Fn: func(ctx *reporter.Context, rep *report.Report) {
			rep.Fail("probe says no")
		},
	}
}

func panicReporter(name string) reporter.Reporter {
	return &reporter.Func{
		ReporterName: name,
		Fn: func(ctx *reporter.Context, rep *report.Report) {
			panic("boom")
		},
	}
}

// drive advances the agent's scheduler deterministically to target.
func drive(a *Agent, sim *simtime.Sim, target time.Time) {
	for {
		next, ok := a.Scheduler().NextFire()
		if !ok || next.After(target) {
			sim.AdvanceTo(target)
			return
		}
		sim.AdvanceTo(next)
		a.Scheduler().RunPending()
	}
}

func newSimAgent(t *testing.T, series ...Series) (*Agent, *simtime.Sim, *collector) {
	t.Helper()
	sim := simtime.NewSim(t0)
	sink := &collector{}
	a, err := New(Spec{
		Resource:     "login1.test.org",
		WorkingDir:   "/home/inca",
		ReporterPath: "/home/inca/reporters",
		Series:       series,
	}, sim, sink, Simulated)
	if err != nil {
		t.Fatal(err)
	}
	return a, sim, sink
}

func TestNewValidation(t *testing.T) {
	sim := simtime.NewSim(t0)
	sink := &collector{}
	if _, err := New(Spec{}, sim, sink, Simulated); err == nil {
		t.Fatal("empty resource accepted")
	}
	if _, err := New(Spec{Resource: "h"}, sim, nil, Simulated); err == nil {
		t.Fatal("nil sink accepted")
	}
	if _, err := New(Spec{Resource: "h", Series: []Series{{}}}, sim, sink, Simulated); err == nil {
		t.Fatal("series without reporter accepted")
	}
	if _, err := New(Spec{Resource: "h", Series: []Series{{Reporter: okReporter("r", 0)}}}, sim, sink, Simulated); err == nil {
		t.Fatal("series without schedule accepted")
	}
}

func TestHourlyExecutionAndForwarding(t *testing.T) {
	a, sim, sink := newSimAgent(t, Series{
		Reporter: okReporter("probe.one", time.Second),
		Branch:   branch.MustParse("probe=one,resource=login1"),
		Cron:     schedule.MustParseCron("20 * * * *"),
	})
	drive(a, sim, t0.Add(5*time.Hour))
	if sink.count() != 5 {
		t.Fatalf("forwarded %d reports, want 5", sink.count())
	}
	msg := sink.msgs[0]
	if msg.host != "login1.test.org" {
		t.Fatalf("host = %q", msg.host)
	}
	if !msg.id.Equal(branch.MustParse("probe=one,resource=login1")) {
		t.Fatalf("branch = %s", msg.id)
	}
	rep, err := report.Parse(msg.data)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report failed: %s", rep.Footer.ErrorMessage)
	}
	if rep.Header.Hostname != "login1.test.org" || rep.Header.WorkingDir != "/home/inca" {
		t.Fatalf("header = %+v", rep.Header)
	}
	st := a.Stats()
	if st.Runs != 5 || st.Failures != 0 || st.Killed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLimitKillProducesErrorReport(t *testing.T) {
	a, sim, sink := newSimAgent(t, Series{
		Reporter: okReporter("probe.slow", 10*time.Minute),
		Branch:   branch.MustParse("probe=slow"),
		Cron:     schedule.MustParseCron("0 * * * *"),
		Limit:    5 * time.Minute,
	})
	drive(a, sim, t0.Add(time.Hour+time.Minute))
	if sink.count() != 1 {
		t.Fatalf("forwarded %d, want 1 (the error report)", sink.count())
	}
	rep, err := report.Parse(sink.msgs[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded() {
		t.Fatal("killed run reported success")
	}
	if !strings.Contains(rep.Footer.ErrorMessage, "exceeded expected run time") {
		t.Fatalf("error = %q", rep.Footer.ErrorMessage)
	}
	if st := a.Stats(); st.Killed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReporterFailureForwardedAsErrorReport(t *testing.T) {
	a, sim, sink := newSimAgent(t, Series{
		Reporter: failReporter("probe.bad"),
		Branch:   branch.MustParse("probe=bad"),
		Cron:     schedule.MustParseCron("0 * * * *"),
	})
	drive(a, sim, t0.Add(time.Hour+time.Minute))
	if sink.count() != 1 {
		t.Fatalf("forwarded %d", sink.count())
	}
	rep, _ := report.Parse(sink.msgs[0].data)
	if rep.Succeeded() || rep.Footer.ErrorMessage != "probe says no" {
		t.Fatalf("report = %+v", rep.Footer)
	}
	if st := a.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanickingReporterDoesNotKillAgent(t *testing.T) {
	a, sim, sink := newSimAgent(t,
		Series{
			Reporter: panicReporter("probe.crash"),
			Branch:   branch.MustParse("probe=crash"),
			Cron:     schedule.MustParseCron("0 * * * *"),
		},
		Series{
			Reporter: okReporter("probe.fine", time.Second),
			Branch:   branch.MustParse("probe=fine"),
			Cron:     schedule.MustParseCron("30 * * * *"),
		})
	drive(a, sim, t0.Add(time.Hour+time.Minute))
	if sink.count() != 2 {
		t.Fatalf("forwarded %d, want 2", sink.count())
	}
	for _, m := range sink.msgs {
		rep, err := report.Parse(m.data)
		if err != nil {
			t.Fatal(err)
		}
		if m.id.Equal(branch.MustParse("probe=crash")) {
			if rep.Succeeded() || !strings.Contains(rep.Footer.ErrorMessage, "crashed") {
				t.Fatalf("crash report = %+v", rep.Footer)
			}
		}
	}
}

func TestSinkErrorsCounted(t *testing.T) {
	a, sim, sink := newSimAgent(t, Series{
		Reporter: okReporter("probe.one", 0),
		Branch:   branch.MustParse("probe=one"),
		Cron:     schedule.MustParseCron("0 * * * *"),
	})
	sink.fail = true
	drive(a, sim, t0.Add(time.Hour+time.Minute))
	if st := a.Stats(); st.SubmitErrs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDependencySkipAcrossSeries(t *testing.T) {
	setup := Series{
		Reporter: failReporter("probe.setup"),
		Branch:   branch.MustParse("probe=setup"),
		Cron:     schedule.MustParseCron("0 * * * *"),
	}
	dependent := Series{
		Reporter:  okReporter("probe.dep", 0),
		Branch:    branch.MustParse("probe=dep"),
		Cron:      schedule.MustParseCron("0 * * * *"),
		DependsOn: []string{setup.Name()},
	}
	a, sim, sink := newSimAgent(t, setup, dependent)
	drive(a, sim, t0.Add(time.Hour+time.Minute))
	// Only the setup's failure report goes out; the dependent was skipped.
	if sink.count() != 1 {
		t.Fatalf("forwarded %d, want 1", sink.count())
	}
	if st := a.Stats(); st.DepSkips != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRandomizedOffsetsSpreadLoad(t *testing.T) {
	// Build an agent with 50 hourly series using schedule.Every, as the
	// deployed specification files did, and verify fires spread across the
	// hour rather than stampeding at minute 0.
	rng := rand.New(rand.NewSource(3))
	var series []Series
	for i := 0; i < 50; i++ {
		series = append(series, Series{
			Reporter: okReporter(fmt.Sprintf("probe.%02d", i), time.Second),
			Branch:   branch.MustParse(fmt.Sprintf("probe=p%02d", i)),
			Cron:     schedule.MustEvery(time.Hour, rng),
		})
	}
	a, sim, sink := newSimAgent(t, series...)
	drive(a, sim, t0.Add(time.Hour))
	if sink.count() != 50 {
		t.Fatalf("forwarded %d, want 50", sink.count())
	}
	minutes := map[int]int{}
	maxPerMinute := 0
	for _, m := range sink.msgs {
		rep, _ := report.Parse(m.data)
		minute := rep.Header.GMT.Minute()
		minutes[minute]++
		if minutes[minute] > maxPerMinute {
			maxPerMinute = minutes[minute]
		}
	}
	if len(minutes) < 20 {
		t.Fatalf("fires concentrated in %d distinct minutes", len(minutes))
	}
	if maxPerMinute > 10 {
		t.Fatalf("%d fires in one minute — not spread", maxPerMinute)
	}
}

func TestLiveModeDeadline(t *testing.T) {
	// A reporter that genuinely blocks is abandoned at the wall deadline.
	slow := &reporter.Func{
		ReporterName: "probe.block",
		Fn: func(ctx *reporter.Context, rep *report.Report) {
			time.Sleep(5 * time.Second)
		},
	}
	sink := &collector{}
	a, err := New(Spec{
		Resource: "h",
		Series: []Series{{
			Reporter: slow,
			Branch:   branch.MustParse("probe=block"),
			Cron:     schedule.MustParseCron("* * * * *"),
			Limit:    50 * time.Millisecond,
		}},
	}, simtime.Real{}, sink, Live)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	a.Scheduler().RunPending() // nothing due yet; manufacture a direct run
	rep, killed := a.runWithDeadline(&a.spec.Series[0], &reporter.Context{Hostname: "h", Now: time.Now()})
	if !killed || rep != nil {
		t.Fatalf("killed=%v rep=%v", killed, rep)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline not enforced promptly")
	}
}
