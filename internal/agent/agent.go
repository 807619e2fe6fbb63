// Package agent implements Inca's distributed controller (paper Section
// 3.1.3): the per-resource daemon that manages reporter execution from a
// specification file, runs each reporter on its cron schedule (randomized
// within its period), terminates reporters that exceed their expected run
// time, and forwards every report — or a special error report — to the
// centralized controller over TCP.
package agent

import (
	"context"
	"fmt"
	"time"

	"inca/internal/branch"
	"inca/internal/metrics"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/schedule"
	"inca/internal/simtime"
)

// Series is one reporter execution series from the specification file:
// which reporter, with what arguments, how often, under what run-time
// limit, and where the data lands in the depot.
type Series struct {
	Reporter reporter.Reporter
	Args     []report.Arg
	// Branch is where the server stores this series' reports.
	Branch branch.ID
	// Cron is the execution schedule (use schedule.Every for the paper's
	// randomized-offset placement).
	Cron *schedule.Spec
	// Limit is the expected run time; executions exceeding it are killed
	// and reported as errors. Zero means unlimited.
	Limit time.Duration
	// DependsOn names other series on this agent that must have succeeded
	// at the same fire instant (the paper's future-work dependency
	// scheduling).
	DependsOn []string
}

// Name returns the scheduler entry name for the series.
func (s *Series) Name() string { return s.Reporter.Name() + "@" + s.Branch.String() }

// Spec is a resource's complete specification file.
type Spec struct {
	// Resource is the hostname the agent runs on.
	Resource string
	// WorkingDir and ReporterPath describe the inca user account layout.
	WorkingDir   string
	ReporterPath string
	Series       []Series
}

// Sink receives completed reports — in deployment, a WireSink pointed at
// the centralized controller; in tests, any collector.
type Sink interface {
	Submit(id branch.ID, hostname string, reportXML []byte) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(id branch.ID, hostname string, reportXML []byte) error

// Submit implements Sink.
func (f SinkFunc) Submit(id branch.ID, hostname string, reportXML []byte) error {
	return f(id, hostname, reportXML)
}

// Mode selects how execution time limits are enforced.
type Mode int

// Execution modes.
const (
	// Simulated mode derives run durations from the reporters' RunDuration
	// and enforces limits against them; used with a virtual clock.
	Simulated Mode = iota
	// Live mode runs reporters under a wall-clock deadline.
	Live
)

// Stats counts agent activity.
type Stats struct {
	Runs       int
	Failures   int // reporter-reported failures (footer completed=false)
	Killed     int // executions terminated for exceeding their limit
	SubmitErrs int // reports the sink refused or could not deliver
	BytesSent  int64
	DepSkips   int
	// Delivery is the sink's delivery accounting when the sink maintains
	// one (see WireSink.DeliveryStats); nil otherwise.
	Delivery *DeliveryStats
}

// DeliveryStatser is implemented by sinks that account for every report's
// delivery fate (spooled/replayed/rejected/dropped); its Depth also feeds
// the inca_agent_spool_depth gauge.
type DeliveryStatser interface {
	DeliveryStats() DeliveryStats
}

// Agent is one distributed controller instance.
type Agent struct {
	spec  Spec
	clock simtime.Clock
	sink  Sink
	mode  Mode
	sched *schedule.Scheduler

	// Counters are the single source of truth for Stats(): the same
	// instruments feed the JSON views and the Prometheus exposition.
	runs       *metrics.Counter
	failures   *metrics.Counter
	killed     *metrics.Counter
	submitErrs *metrics.Counter
	bytesSent  *metrics.Counter
	execH      *metrics.Histogram
	submitH    *metrics.Histogram
}

// New builds an agent from a specification. Reporters are registered with
// the internal scheduler immediately; call Run (live) or drive the
// scheduler via Scheduler() (simulation).
func New(spec Spec, clock simtime.Clock, sink Sink, mode Mode) (*Agent, error) {
	return NewMetrics(spec, clock, sink, mode, nil)
}

// NewMetrics is New with agent, scheduler, and (when the sink spools)
// spool-depth instruments registered in reg. A nil reg keeps the
// instruments private — Stats() works either way.
func NewMetrics(spec Spec, clock simtime.Clock, sink Sink, mode Mode, reg *metrics.Registry) (*Agent, error) {
	if spec.Resource == "" {
		return nil, fmt.Errorf("agent: spec has no resource hostname")
	}
	if sink == nil {
		return nil, fmt.Errorf("agent: nil sink")
	}
	a := &Agent{
		spec:       spec,
		clock:      clock,
		sink:       sink,
		mode:       mode,
		sched:      schedule.NewSchedulerMetrics(clock, reg),
		runs:       reg.Counter("inca_agent_runs_total", "Reporter executions."),
		failures:   reg.Counter("inca_agent_failures_total", "Reporter runs whose report footer said completed=false."),
		killed:     reg.Counter("inca_agent_killed_total", "Reporter executions terminated for exceeding their run-time limit."),
		submitErrs: reg.Counter("inca_agent_submit_errors_total", "Reports the sink refused or could not deliver."),
		bytesSent:  reg.Counter("inca_agent_bytes_sent_total", "Report bytes handed to the sink."),
		execH:      reg.Histogram("inca_agent_execute_seconds", "Reporter execution latency (run through report marshal).", nil),
		submitH:    reg.Histogram("inca_agent_submit_seconds", "Sink submit latency per report.", nil),
	}
	if ds, ok := sink.(DeliveryStatser); ok {
		reg.GaugeFunc("inca_agent_spool_depth", "Reports queued in the delivery spool.", func() float64 {
			return float64(ds.DeliveryStats().Depth)
		})
	}
	for i := range spec.Series {
		s := &spec.Series[i]
		if s.Reporter == nil {
			return nil, fmt.Errorf("agent: series %d has no reporter", i)
		}
		if s.Cron == nil {
			return nil, fmt.Errorf("agent: series %s has no schedule", s.Reporter.Name())
		}
		series := s
		err := a.sched.Add(&schedule.Entry{
			Name:      s.Name(),
			Spec:      s.Cron,
			DependsOn: s.DependsOn,
			Action: func(now time.Time) error {
				return a.execute(series, now)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Scheduler exposes the agent's scheduler so simulation harnesses can
// drive it deterministically (NextFire/RunPending).
func (a *Agent) Scheduler() *schedule.Scheduler { return a.sched }

// Resource returns the agent's hostname.
func (a *Agent) Resource() string { return a.spec.Resource }

// SeriesCount returns the number of configured series.
func (a *Agent) SeriesCount() int { return len(a.spec.Series) }

// Run drives the agent against its clock until ctx is cancelled (live
// deployments).
func (a *Agent) Run(ctx context.Context) { a.sched.Run(ctx) }

// execute performs one reporter run: limit enforcement, error reports,
// forwarding. This is the daemon's "wake up and fork" path.
func (a *Agent) execute(s *Series, now time.Time) error {
	execStart := time.Now()
	ctx := &reporter.Context{
		Hostname:     a.spec.Resource,
		Now:          now,
		WorkingDir:   a.spec.WorkingDir,
		ReporterPath: a.spec.ReporterPath,
		Args:         s.Args,
	}
	var rep *report.Report
	killed := false
	switch a.mode {
	case Simulated:
		// A simulated run lasts as long as its reporter says it does.
		var duration time.Duration
		if timed, ok := s.Reporter.(reporter.Timed); ok {
			duration = timed.RunDuration(ctx)
		}
		if killed = s.Limit > 0 && duration > s.Limit; !killed {
			rep = a.runProtected(s, ctx)
		}
	case Live:
		rep, killed = a.runWithDeadline(s, ctx)
	}
	if killed {
		// "The daemon also monitors all forked processes and terminates
		// them if they exceed expected run time" — and sends a special
		// error report.
		rep = reporter.New(s.Reporter, ctx).
			Fail("reporter exceeded expected run time of %v and was terminated", s.Limit)
	}
	if rep == nil {
		rep = reporter.New(s.Reporter, ctx).Fail("reporter produced no output")
	}

	data, err := report.Marshal(rep)
	if err != nil {
		return fmt.Errorf("agent: marshal %s: %w", s.Reporter.Name(), err)
	}
	a.execH.ObserveSince(execStart)
	a.runs.Inc()
	if killed {
		a.killed.Inc()
	}
	if !rep.Succeeded() {
		a.failures.Inc()
	}

	submitStart := time.Now()
	err = a.sink.Submit(s.Branch, a.spec.Resource, data)
	a.submitH.ObserveSince(submitStart)
	if err != nil {
		a.submitErrs.Inc()
		return fmt.Errorf("agent: submit %s: %w", s.Reporter.Name(), err)
	}
	a.bytesSent.Add(uint64(len(data)))
	if !rep.Succeeded() {
		// Surface the failure to the scheduler so dependent series skip.
		return fmt.Errorf("agent: %s failed: %s", s.Reporter.Name(), rep.Footer.ErrorMessage)
	}
	return nil
}

// runProtected executes the reporter, converting panics into error reports
// (a crashing reporter must not take down the daemon).
func (a *Agent) runProtected(s *Series, ctx *reporter.Context) (rep *report.Report) {
	defer func() {
		if r := recover(); r != nil {
			rep = reporter.New(s.Reporter, ctx).Fail("reporter crashed: %v", r)
		}
	}()
	return s.Reporter.Run(ctx)
}

// runWithDeadline runs the reporter in a separate goroutine and abandons it
// at the limit (the in-process analogue of killing a forked process).
func (a *Agent) runWithDeadline(s *Series, ctx *reporter.Context) (*report.Report, bool) {
	if s.Limit <= 0 {
		return a.runProtected(s, ctx), false
	}
	done := make(chan *report.Report, 1)
	go func() { done <- a.runProtected(s, ctx) }()
	select {
	case rep := <-done:
		return rep, false
	case <-a.clock.After(s.Limit):
		return nil, true
	}
}

// Stats returns a snapshot of agent counters — a view over the same
// instruments the metrics registry exposes — folding in the scheduler's
// dependency skips and, when the sink keeps one, its delivery accounting.
func (a *Agent) Stats() Stats {
	s := Stats{
		Runs:       int(a.runs.Value()),
		Failures:   int(a.failures.Value()),
		Killed:     int(a.killed.Value()),
		SubmitErrs: int(a.submitErrs.Value()),
		BytesSent:  int64(a.bytesSent.Value()),
		DepSkips:   a.sched.Stats().Skips,
	}
	if ds, ok := a.sink.(DeliveryStatser); ok {
		d := ds.DeliveryStats()
		s.Delivery = &d
	}
	return s
}
