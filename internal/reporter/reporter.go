// Package reporter defines the reporter execution API — this
// reproduction's analogue of Inca's Perl and Python reporter APIs (paper
// Section 3.1.2), which "help developers comply with the Inca reporter
// specifications, cut development time, and reduce duplicate code".
//
// A Reporter performs one test, benchmark, or query and returns a
// specification-compliant report. Reporters never control their own
// schedule; the distributed controller (package agent) decides when they
// run and enforces their execution-time limit.
package reporter

import (
	"fmt"
	"time"

	"inca/internal/report"
)

// Context carries everything a reporter may consult during a run. Reporters
// must derive all time-dependent behaviour from Now, never the wall clock,
// so simulated deployments stay deterministic.
type Context struct {
	// Hostname of the resource the reporter runs on.
	Hostname string
	// Now is the (possibly virtual) time of the run.
	Now time.Time
	// WorkingDir and ReporterPath describe the installation, echoed into
	// the report header.
	WorkingDir   string
	ReporterPath string
	// Args are the run-time input arguments from the controller spec.
	Args []report.Arg
}

// Arg returns the named argument's value or def when absent.
func (c *Context) Arg(name, def string) string {
	for _, a := range c.Args {
		if a.Name == name {
			return a.Value
		}
	}
	return def
}

// Reporter is one probe. Run must return a non-nil report whose body
// follows the specification; use Validate in tests to enforce it.
type Reporter interface {
	// Name is the reporter's dotted identifier, e.g.
	// "grid.middleware.globus.unit.gatekeeper".
	Name() string
	// Version is the reporter's own version string.
	Version() string
	// Description is a one-line summary for catalog listings.
	Description() string
	// Run executes the probe.
	Run(ctx *Context) *report.Report
}

// Timed is implemented by reporters that know how long a run occupies the
// resource. A simulated distributed controller asks it once per run, at the
// fire time, to enforce expected-run-time limits; reporters without it are
// treated as instantaneous.
type Timed interface {
	// RunDuration returns the execution time of a run at ctx.Now.
	RunDuration(ctx *Context) time.Duration
}

// New stamps a fresh report for the given reporter and context: the shared
// boilerplate the paper's APIs exist to remove.
func New(r Reporter, ctx *Context) *report.Report {
	rep := report.New(r.Name(), r.Version(), ctx.Hostname, ctx.Now)
	rep.Header.WorkingDir = ctx.WorkingDir
	rep.Header.ReporterPath = ctx.ReporterPath
	rep.Header.Args = append([]report.Arg(nil), ctx.Args...)
	return rep
}

// Func adapts a plain function into a Reporter, for quick custom probes.
type Func struct {
	ReporterName        string
	ReporterVersion     string
	ReporterDescription string
	Duration            time.Duration
	Fn                  func(ctx *Context, rep *report.Report)
}

// Name implements Reporter.
func (f *Func) Name() string { return f.ReporterName }

// Version implements Reporter.
func (f *Func) Version() string {
	if f.ReporterVersion == "" {
		return "1.0"
	}
	return f.ReporterVersion
}

// Description implements Reporter.
func (f *Func) Description() string { return f.ReporterDescription }

// RunDuration implements Timed.
func (f *Func) RunDuration(*Context) time.Duration { return f.Duration }

// Run implements Reporter.
func (f *Func) Run(ctx *Context) *report.Report {
	rep := New(f, ctx)
	f.Fn(ctx, rep)
	return rep
}

// Validate runs r once against ctx and checks the result against the
// reporter specification — the compliance check reporter developers run
// before deploying.
func Validate(r Reporter, ctx *Context) error {
	rep := r.Run(ctx)
	if rep == nil {
		return fmt.Errorf("reporter %s returned nil report", r.Name())
	}
	if rep.Header.Name != r.Name() {
		return fmt.Errorf("reporter %s stamped wrong header name %q", r.Name(), rep.Header.Name)
	}
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("reporter %s: %w", r.Name(), err)
	}
	// The wire form must round-trip.
	data, err := report.Marshal(rep)
	if err != nil {
		return fmt.Errorf("reporter %s: marshal: %w", r.Name(), err)
	}
	if _, err := report.Parse(data); err != nil {
		return fmt.Errorf("reporter %s: reparse: %w", r.Name(), err)
	}
	return nil
}
