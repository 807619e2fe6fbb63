package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"inca/internal/loadgen"
	"inca/internal/stats"
)

// Load is the DiPerF-style closed-loop capacity experiment (DESIGN.md
// §5j): spawn a real inca-server (and, in federated mode, a router in
// front of real shard processes), ramp concurrent closed-loop workers
// through staged levels of mixed write/read traffic over real TCP, and
// locate the saturation knee — the load where throughput plateaus while
// response time inflects. The committed BENCH_load.json is this
// experiment's output.

// LoadOptions configures the capacity ramp.
type LoadOptions struct {
	// Stages is the concurrency ramp (default loadgen.DefaultStages:
	// 1, 2, 4, 8, 16, 32).
	Stages []int
	// StageDuration is each stage's measured window (default 2s).
	StageDuration time.Duration
	// Warmup settles each stage before measuring (default 300ms).
	Warmup time.Duration
	// Modes selects the topologies to ramp: "single" (one depot server)
	// and/or "federated" (a router over Shards shard processes).
	// Default: both.
	Modes []string
	// Shards is the federated shard count (default 4).
	Shards int
	// ReportSize, WriteBatch, Sites, Probes pass through to the harness.
	ReportSize, WriteBatch, Sites, Probes int
}

func (o *LoadOptions) fill() error {
	if len(o.Stages) == 0 {
		o.Stages = append([]int(nil), loadgen.DefaultStages...)
	}
	if err := loadgen.ValidateStages(o.Stages); err != nil {
		return err
	}
	if o.StageDuration <= 0 {
		o.StageDuration = 2 * time.Second
	}
	if len(o.Modes) == 0 {
		o.Modes = []string{"single", "federated"}
	}
	for _, m := range o.Modes {
		if m != "single" && m != "federated" {
			return fmt.Errorf("experiments: unknown load mode %q (single, federated)", m)
		}
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	return nil
}

// Load runs the capacity experiment.
func Load(opt LoadOptions) (Result, error) {
	if err := opt.fill(); err != nil {
		return Result{}, err
	}
	dir, err := os.MkdirTemp("", "inca-load-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	bin, err := buildServerBinary(dir)
	if err != nil {
		return Result{}, err
	}
	var runErr error
	r := timed("load", "Closed-loop capacity ramp to the saturation knee (DiPerF methodology)", func(r *Result) {
		r.Notes = append(r.Notes,
			"every spawned inca-server (the single depot and each federated shard) runs with its default flags, so on the indexed cache (-cache indexed)",
			fmt.Sprintf("closed-loop ramp %v, %s per stage after %s warmup", opt.Stages, opt.StageDuration, warmupNote(opt.Warmup)),
			"mixed workload per worker: batched wire writes, conditional /cache+/reports revalidations, cold site-prefix deep reads")
		var sections []string
		for _, mode := range opt.Modes {
			curve, err := runLoadMode(mode, bin, opt)
			if err != nil {
				runErr = fmt.Errorf("experiments: load mode %s: %w", mode, err)
				return
			}
			sections = append(sections, renderLoadCurve(mode, curve))
			for _, s := range curve.Stages {
				r.Metrics = append(r.Metrics, Metric{
					Name: "capacity",
					Labels: map[string]string{
						"mode":    mode,
						"clients": strconv.Itoa(s.Concurrency),
					},
					OpsPerSec: s.OpsPerSec,
					P50Micros: s.P50,
					P95Micros: s.P95,
					P99Micros: s.P99,
				})
			}
			if curve.KneeFound {
				r.Metrics = append(r.Metrics, Metric{
					Name:      "knee",
					Labels:    map[string]string{"mode": mode},
					OpsPerSec: curve.Knee.Throughput,
					P95Micros: curve.Knee.P95,
					Value:     curve.Knee.Load,
					ValueUnit: "clients",
				})
				r.Notes = append(r.Notes, fmt.Sprintf("%s knee: %s", mode, curve.Knee.Reason))
			} else {
				r.Notes = append(r.Notes, fmt.Sprintf("%s: no saturation knee within the ramp — extend the stages", mode))
			}
		}
		r.Text = strings.Join(sections, "\n")
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return r, nil
}

func warmupNote(w time.Duration) string {
	if w <= 0 {
		return "default"
	}
	return w.String()
}

// runLoadMode spawns the topology for one mode and ramps the harness
// against it.
func runLoadMode(mode, bin string, opt LoadOptions) (*loadgen.Curve, error) {
	const announce = 20 * time.Second
	var procs []*serverProc
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	start := func(args ...string) (*serverProc, error) {
		p, err := startServer(bin, args...)
		if err == nil {
			procs = append(procs, p)
		}
		return p, err
	}

	var wireAddr, httpAddr string
	switch mode {
	case "single":
		p, err := start("-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if wireAddr, err = p.expect(wireAddrRE, announce); err != nil {
			return nil, err
		}
		if httpAddr, err = p.expect(httpAddrRE, announce); err != nil {
			return nil, err
		}
	case "federated":
		var members []string
		for i := 0; i < opt.Shards; i++ {
			p, err := start("-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			w, err := p.expect(wireAddrRE, announce)
			if err != nil {
				return nil, err
			}
			h, err := p.expect(httpAddrRE, announce)
			if err != nil {
				return nil, err
			}
			members = append(members, w+"/"+h)
		}
		p, err := start("-federate", strings.Join(members, ","), "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if wireAddr, err = p.expect(routerWireRE, announce); err != nil {
			return nil, err
		}
		if httpAddr, err = p.expect(routerHTTPRE, announce); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown load mode %q", mode)
	}

	h, err := loadgen.NewHarness(loadgen.HarnessOptions{
		WireAddr:      wireAddr,
		HTTPBase:      "http://" + httpAddr,
		Stages:        opt.Stages,
		StageDuration: opt.StageDuration,
		Warmup:        opt.Warmup,
		ReportSize:    opt.ReportSize,
		WriteBatch:    opt.WriteBatch,
		Sites:         opt.Sites,
		Probes:        opt.Probes,
	})
	if err != nil {
		return nil, err
	}
	return h.Run()
}

// renderLoadCurve formats one mode's load-vs-response-time table the way
// the DiPerF plots read: one row per offered load, throughput beside the
// latency distribution, the knee marked inline.
func renderLoadCurve(mode string, curve *loadgen.Curve) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%s\n", mode)
	fmt.Fprintf(&sb, "%8s %10s %10s %10s %10s %9s %7s %7s\n",
		"clients", "ops/s", "p50(us)", "p95(us)", "p99(us)", "srv-ops/s", "304s", "errors")
	for i, s := range curve.Stages {
		srv := s.Server["inca_controller_accepted_total"] + s.Server["inca_federation_routed_total"]
		var notMod, errs int64
		for class := 0; class < loadgen.NumOpClasses; class++ {
			notMod += s.Classes[class].NotModified
			errs += s.Classes[class].Errors
		}
		marker := ""
		if curve.KneeFound && i == curve.Knee.Index {
			marker = "  <- knee"
		}
		fmt.Fprintf(&sb, "%8d %10.0f %10.0f %10.0f %10.0f %9.0f %7d %7d%s\n",
			s.Concurrency, s.OpsPerSec, s.P50, s.P95, s.P99,
			srv/s.Window.Seconds(), notMod, errs, marker)
	}
	if curve.KneeFound {
		fmt.Fprintf(&sb, "knee: %.0f clients at %.0f ops/s (%s, p95 %.0fus, latency-confirmed=%v)\n",
			curve.Knee.Load, curve.Knee.Throughput, curve.Knee.Kind, curve.Knee.P95, curve.Knee.LatencyConfirmed)
	} else {
		sb.WriteString("knee: not reached within the ramp\n")
	}
	return sb.String()
}

// kneeFromMetrics recovers the per-mode curve and knee out of a
// serialized load result — how validation tooling checks a committed
// BENCH_load.json without rerunning the ramp.
func kneeFromMetrics(metrics []Metric, mode string) (points []stats.CurvePoint, knee *Metric) {
	for i, m := range metrics {
		switch {
		case m.Name == "capacity" && m.Labels["mode"] == mode:
			clients, err := strconv.Atoi(m.Labels["clients"])
			if err != nil {
				continue
			}
			points = append(points, stats.CurvePoint{Load: float64(clients), Throughput: m.OpsPerSec, P95: m.P95Micros})
		case m.Name == "knee" && m.Labels["mode"] == mode:
			knee = &metrics[i]
		}
	}
	return points, knee
}
