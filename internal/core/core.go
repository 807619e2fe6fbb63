// Package core is the top-level Inca framework façade: it assembles the
// client/server architecture of Figure 1 — reporters and distributed
// controllers on every resource, the centralized controller and depot on
// the server — into a runnable deployment, and provides the deterministic
// virtual-time driver the evaluation harness uses to replay week-long
// TeraGrid operation in seconds.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"inca/internal/agent"
	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/catalog"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/gridsim"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/schedule"
	"inca/internal/simtime"
)

// Options configures a simulated deployment.
type Options struct {
	// Seed drives the grid's failure models and the reporters' randomized
	// schedule offsets.
	Seed int64
	// Start is the virtual start instant.
	Start time.Time
	// Mode is the envelope encoding (Body reproduces the deployed system).
	Mode envelope.Mode
	// Cache overrides the depot cache implementation (nil: depot.New's default).
	Cache depot.Cache
	// Grid overrides the grid options (default DefaultTeraGridOptions with
	// the stack installed 30 days before Start).
	Grid *gridsim.TeraGridOptions
	// Availability, when true, uploads the summary-percentage archival
	// policy so RecordAvailability works.
	Availability bool
}

// Deployment is one wired Inca instance over the simulated TeraGrid. Its
// Evaluate and Snapshot verify the cache against the agreement with one
// agreement.Incremental retained across cycles.
type Deployment struct {
	Opt        Options
	Clock      *simtime.Sim
	Grid       *gridsim.Grid
	Depot      *depot.Depot
	Controller *controller.Controller
	Agents     []*agent.Agent
	Agreement  *agreement.Agreement

	// evaluator is the agreement evaluator retained across verification
	// cycles, so a cycle re-parses only the cached entries that changed.
	evaluator *agreement.Incremental
	// responses is the controller's answer to every report it accepted
	// from the agents, in arrival order (see Responses).
	responses []controller.Response
}

// VOName is the branch component every deployment report files under.
const VOName = "teragrid"

// BranchFor returns the depot location for one reporter on one resource:
// reporter=<name>,resource=<host>,site=<site>,vo=teragrid.
func BranchFor(reporterName, host, site string) branch.ID {
	return BranchInVO(VOName, reporterName, host, site)
}

// BranchInVO is BranchFor with an explicit VO component.
func BranchInVO(vo, reporterName, host, site string) branch.ID {
	return branch.MustParse(fmt.Sprintf("reporter=%s,resource=%s,site=%s,vo=%s",
		reporterName, host, site, vo))
}

// NewTeraGridDeployment builds the ten-resource deployment of Figure 3 /
// Table 2: per-host specification files whose reporter counts match the
// table exactly (136 / 128 / 71 per hour), a centralized controller with
// the host allowlist, and a depot.
func NewTeraGridDeployment(opt Options) (*Deployment, error) {
	if opt.Start.IsZero() {
		opt.Start = time.Date(2004, 6, 29, 0, 0, 0, 0, time.UTC)
	}
	gridOpt := gridsim.DefaultTeraGridOptions(opt.Start.Add(-30 * 24 * time.Hour))
	if opt.Grid != nil {
		gridOpt = *opt.Grid
	}
	clock := simtime.NewSim(opt.Start)
	grid := gridsim.NewTeraGrid(opt.Seed, gridOpt)

	dep := depot.New(opt.Cache)
	if opt.Availability {
		if err := dep.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
			return nil, err
		}
	}

	var allow []string
	for _, h := range gridsim.TeraGridHosts {
		allow = append(allow, h.Host)
	}
	// Enveloped: Table 4 and Figure 8 replay the paper's deployment, whose
	// depot unpacked an envelope for every report.
	ctl := controller.New(controller.Enveloped(dep), controller.Options{
		Allowlist: allow,
		Mode:      opt.Mode,
	})

	d := &Deployment{
		Opt:        opt,
		Clock:      clock,
		Grid:       grid,
		Depot:      dep,
		Controller: ctl,
		Agreement:  agreement.TeraGrid(),
	}
	sink := agent.SinkFunc(func(id branch.ID, host string, reportXML []byte) error {
		resp, err := ctl.Submit(id, host, reportXML)
		if err == nil {
			d.responses = append(d.responses, resp)
		}
		return err
	})
	for _, h := range gridsim.TeraGridHosts {
		res, ok := grid.Resource(h.Host)
		if !ok {
			return nil, fmt.Errorf("core: grid missing host %s", h.Host)
		}
		rng := rand.New(rand.NewSource(opt.Seed*1000 + int64(len(d.Agents))))
		spec, err := BuildSpec(grid, res, rng)
		if err != nil {
			return nil, err
		}
		if len(spec.Series) != h.Reporters {
			return nil, fmt.Errorf("core: %s spec has %d series, Table 2 says %d",
				h.Host, len(spec.Series), h.Reporters)
		}
		a, err := agent.New(spec, clock, sink, agent.Simulated)
		if err != nil {
			return nil, err
		}
		d.Agents = append(d.Agents, a)
	}
	return d, nil
}

// BuildSpec assembles the specification file for one resource, per its
// Table 2 host kind (see DESIGN.md E2 for the composition arithmetic).
func BuildSpec(grid *gridsim.Grid, res *gridsim.Resource, rng *rand.Rand) (agent.Spec, error) {
	kind, err := gridsim.KindOf(res.Host)
	if err != nil {
		return agent.Spec{}, err
	}
	spec := agent.Spec{
		Resource:     res.Host,
		WorkingDir:   "/home/inca",
		ReporterPath: "/home/inca/reporters",
	}
	site := res.Site.Name
	hourly := func() *schedule.Spec { return schedule.MustEvery(time.Hour, rng) }
	add := func(r reporter.Reporter, limit time.Duration, args ...report.Arg) {
		spec.Series = append(spec.Series, agent.Series{
			Reporter: r,
			Args:     args,
			Branch:   BranchFor(r.Name(), res.Host, site),
			Cron:     hourly(),
			Limit:    limit,
		})
	}

	// Package reporters: core stack everywhere (minus gm on reduced
	// hosts), extended and viz stacks per kind.
	pkgSets := []map[string]string{
		gridsim.GridPackages, gridsim.DevelopmentPackages, gridsim.ClusterPackages,
	}
	if kind != gridsim.ReducedHost {
		pkgSets = append(pkgSets, gridsim.ExtendedPackages)
	}
	if kind == gridsim.VizHost {
		pkgSets = append(pkgSets, gridsim.VizPackages)
	}
	var pkgs []string
	for _, set := range pkgSets {
		for name := range set {
			if kind == gridsim.ReducedHost && name == gridsim.ReducedSkipPackage {
				continue
			}
			pkgs = append(pkgs, name)
		}
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		add(&catalog.VersionReporter{Resource: res, Package: pkg}, time.Minute)
		add(&catalog.UnitTestReporter{Resource: res, Package: pkg}, 5*time.Minute)
	}

	// Environment collectors.
	add(&catalog.EnvReporter{Resource: res}, time.Minute)
	add(&catalog.SoftEnvReporter{Resource: res}, time.Minute)

	// Local service probes.
	for _, svc := range gridsim.TeraGridServices {
		add(&catalog.ServiceReporter{Resource: res, Service: svc.Name}, 2*time.Minute)
	}

	// Cross-site probes to every other resource: all four services on
	// full/viz hosts, gatekeeper and gridftp only on reduced hosts.
	var others []string
	for _, h := range gridsim.TeraGridHosts {
		if h.Host != res.Host {
			others = append(others, h.Host)
		}
	}
	xsiteServices := []string{"gram-gatekeeper", "gridftp", "ssh", "srb"}
	if kind == gridsim.ReducedHost {
		xsiteServices = []string{"gram-gatekeeper", "gridftp"}
	}
	for _, svc := range xsiteServices {
		for _, dest := range others {
			add(&catalog.CrossSiteReporter{Grid: grid, Source: res, DestHost: dest, Service: svc},
				5*time.Minute, report.Arg{Name: "dest", Value: dest})
		}
	}

	// Network bandwidth reporters (full/viz hosts only).
	if kind != gridsim.ReducedHost {
		for _, tool := range []catalog.NetworkTool{catalog.Pathload, catalog.Pathchirp, catalog.Spruce} {
			for _, dest := range others {
				add(&catalog.BandwidthReporter{Grid: grid, Source: res, DestHost: dest, Tool: tool},
					10*time.Minute, report.Arg{Name: "dest", Value: dest})
			}
		}
	}

	// GRASP-style benchmarks: the full suite on production nodes, the
	// flops probe alone on reduced hosts.
	benchKinds := []string{"flops", "membw", "io"}
	if kind == gridsim.ReducedHost {
		benchKinds = []string{"flops"}
	}
	for _, k := range benchKinds {
		add(&catalog.BenchmarkReporter{Resource: res, Kind: k}, 10*time.Minute)
	}

	return spec, nil
}

// AgentFor returns the agent running on host.
func (d *Deployment) AgentFor(host string) (*agent.Agent, bool) {
	for _, a := range d.Agents {
		if a.Resource() == host {
			return a, true
		}
	}
	return nil, false
}

// Responses returns the controller's response to every report it accepted
// from the deployment's agents, in arrival order: the depot response-time
// log of Table 4 and Figure 8, kept by the deployment that replays them
// rather than by the controller.
func (d *Deployment) Responses() []controller.Response {
	return slices.Clone(d.responses)
}

// TotalSeries sums the configured reporters per hour across the VO
// (Table 2's bottom line).
func (d *Deployment) TotalSeries() int {
	n := 0
	for _, a := range d.Agents {
		n += a.SeriesCount()
	}
	return n
}

// RunUntil advances virtual time to target, firing every reporter on
// schedule. When tick > 0, onTick runs at each tick boundary (the
// evaluation harness uses 10-minute ticks for availability snapshots).
func (d *Deployment) RunUntil(target time.Time, tick time.Duration, onTick func(now time.Time)) {
	var nextTick time.Time
	if onTick != nil && tick > 0 {
		nextTick = d.Clock.Now().Truncate(tick).Add(tick)
	}
	for {
		earliest := target
		for _, a := range d.Agents {
			if nf, ok := a.Scheduler().NextFire(); ok && nf.Before(earliest) {
				earliest = nf
			}
		}
		if !nextTick.IsZero() && nextTick.Before(earliest) {
			earliest = nextTick
		}
		if earliest.After(target) {
			earliest = target
		}
		d.Clock.AdvanceTo(earliest)
		now := d.Clock.Now()
		for _, a := range d.Agents {
			a.Scheduler().RunPending()
		}
		if !nextTick.IsZero() && !now.Before(nextTick) {
			onTick(now)
			nextTick = nextTick.Add(tick)
		}
		if !now.Before(target) {
			return
		}
	}
}

// DriveAgents advances a shared virtual clock to target, firing every
// agent's due series in deadline order — the deterministic driver loop for
// ad-hoc agent sets that are not part of a Deployment (examples, tests,
// integration harnesses).
func DriveAgents(clock *simtime.Sim, agents []*agent.Agent, target time.Time) {
	for {
		var next time.Time
		found := false
		for _, a := range agents {
			if nf, ok := a.Scheduler().NextFire(); ok && (!found || nf.Before(next)) {
				next, found = nf, true
			}
		}
		if !found || next.After(target) {
			clock.AdvanceTo(target)
			return
		}
		clock.AdvanceTo(next)
		for _, a := range agents {
			a.Scheduler().RunPending()
		}
	}
}

// Evaluate runs agreement verification over the current cache: a Full
// sweep of the deployment's retained Incremental, which reuses parsed
// reports across calls (most cached entries are unchanged between
// 10-minute snapshot cycles under hourly collection). The status equals
// agreement.Evaluate's over the same cache.
func (d *Deployment) Evaluate() (*agreement.VOStatus, error) {
	if d.evaluator == nil {
		d.evaluator = agreement.NewIncremental(d.Agreement)
	}
	status, _, err := d.evaluator.Full(d.Depot.Cache(), d.Clock.Now())
	return status, err
}

// Snapshot evaluates and archives availability percentages (requires
// Options.Availability).
func (d *Deployment) Snapshot() (*agreement.VOStatus, error) {
	status, err := d.Evaluate()
	if err != nil {
		return nil, err
	}
	if err := consumer.RecordAvailability(d.Depot, status); err != nil {
		return nil, err
	}
	return status, nil
}
