package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
)

func merge(stats []*clientStats, pick func(*clientStats) []sample) []sample {
	var out []sample
	for _, s := range stats {
		out = append(out, pick(s)...)
	}
	return out
}

// unitOf maps every metric in spec.go to its unit.
var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}()

func (r *runResult) set(name string, value float64, samples int, note string) {
	r.metrics[name] = metricValue{Value: value, Unit: unitOf[name], Samples: samples, Note: note}
}

// compensated reports an end-to-end figure of one load phase: its median
// second's, corrected for the host's speed (hostspeed.go). The note carries
// the figure as measured, so the printed table hides nothing. A phase without
// samples is a failed run.
func (r *runResult) compensated(name string, samples []sample, phase *loadResult, note string, figure func(host []float64) float64) {
	if len(samples) == 0 {
		r.problem("%s: no samples", name)
	}
	note = strings.TrimSpace(fmt.Sprintf("%s as measured %.4f", note, figure(nil)))
	r.set(name, figure(phase.host), len(samples), note)
}

// tail reports a p95 where the window has the operation at all.
func (r *runResult) tail(name string, samples []sample) {
	ms, used := percentileMS(samples, 95)
	note := ""
	if used != 0 && used < 95 {
		note = fmt.Sprintf("p%.0f: too few samples for p95", used)
	}
	r.set(name, ms, len(samples), note)
}

// phaseFigures is what the clients of one load phase measured.
type phaseFigures struct {
	acked, reads, events, resyncs         int64
	ack, subtree, revalidate, fresh, late []sample
}

func (lr *loadResult) figures() phaseFigures {
	var f phaseFigures
	for _, s := range lr.stats {
		f.acked += s.acked.Load()
		f.reads += s.reads.Load()
		f.events += s.events
		f.resyncs += s.resyncs
	}
	f.ack = merge(lr.stats, func(s *clientStats) []sample { return s.ack })
	f.subtree = merge(lr.stats, func(s *clientStats) []sample { return s.subtree })
	f.revalidate = merge(lr.stats, func(s *clientStats) []sample { return s.revalidate })
	f.fresh = merge(lr.stats, func(s *clientStats) []sample { return s.fresh })
	f.late = merge(lr.stats, func(s *clientStats) []sample { return s.late })
	return f
}

// assemble turns what a run measured into named metrics. lr is the
// workload's own window; reads is the pass after it that supplies the read
// figures of a workload without a reader (lr itself when it has one).
func (e *env) assemble(r *runResult, lr, reads *loadResult, setupS, recoverS []float64, rssMB, diskPerReport float64, tr *tracer, traced bool) {
	for _, phase := range []*loadResult{lr, reads} {
		for _, s := range phase.stats {
			r.attempted += s.attempted
			r.failed += s.failed
		}
		if phase == reads {
			break // one phase, listed twice
		}
	}
	own := lr.figures()

	if !traced {
		// Every timing, rate and CPU figure is its median second's, corrected
		// for the host's speed in that second (stats.go and hostspeed.go say
		// why). Throughput pays for the drain: a report counts once it is in
		// its depot, so the rate is scaled by the share of window plus drain
		// that the window was.
		r.set("setup_s", median(setupS), len(setupS), "")
		r.compensated("ingest_reports_per_s", own.ack, lr, "", func(host []float64) float64 {
			if lr.mix.pacedBurst > 0 {
				host = nil // a paced writer's rate is its schedule's, whatever the host's speed
			}
			return medianSecondRate(own.ack, lr.window, host) * lr.window.Seconds() / (lr.window + lr.drain).Seconds()
		})
		p50 := func(samples []sample, phase *loadResult) func([]float64) float64 {
			return func(host []float64) float64 { return medianSecondP50MS(samples, phase.window, host) }
		}
		r.compensated("ingest_ack_p50_ms", own.ack, lr, "", p50(own.ack, lr))
		rd, note := own, ""
		if reads != lr {
			rd, note = reads.figures(), "read pass;"
		}
		r.compensated("subtree_p50_ms", rd.subtree, reads, note, p50(rd.subtree, reads))
		r.compensated("revalidate_p50_ms", rd.revalidate, reads, note, p50(rd.revalidate, reads))
		ops := append(append(append([]sample(nil), own.ack...), own.subtree...), own.revalidate...)
		r.compensated("server_cpu_s_per_kop", ops, lr, "", func(host []float64) float64 { return medianCPUPerKop(lr.cpuAt, ops, host) })
		r.set("server_peak_rss_mb", rssMB, 1, "")
		return
	}

	// Whole-window figures that are reported, not gated (README.md says
	// why): the reader's rate; how old a report is, by its send stamp, when
	// the subscriber's change event carrying it arrives; exec to listening
	// banner, which is a replay of the log after SIGKILL on a disk
	// deployment and a cold start on a memory one; and the tails.
	r.set("read_ops_per_s", float64(own.reads)/lr.window.Seconds(), int(own.reads), "")
	fresh, _ := percentileMS(own.fresh, 50)
	r.set("freshness_p50_ms", fresh, len(own.fresh), "")
	r.set("recovery_s", median(recoverS), len(recoverS), "")
	r.tail("ingest_ack_p95_ms", own.ack)
	r.tail("subtree_p95_ms", own.subtree)
	r.tail("freshness_p95_ms", own.fresh)

	// Per-layer metrics from the server's own counters over the window.
	front, depots := lr.front, lr.depotPages
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	count := func(name string, m map[string]float64, family string) {
		r.set(name, m[family], 1, "")
	}
	share := func(name string, m map[string]float64, num, den string) {
		r.set(name, ratio(m[num], m[den]), int(m[den]), "")
	}
	// meanUS is a histogram's mean over the window, in microseconds; labels
	// picks one label set of the family ("" sums them all).
	meanUS := func(name string, m map[string]float64, family, labels string) {
		n := m[family+"_count"+labels]
		r.set(name, 1e6*ratio(m[family+"_sum"+labels], n), int(n), "")
	}
	share("wire.server_msgs_per_batch", front, "inca_wire_server_messages_total", "inca_wire_server_batches_total")
	meanUS("controller.handle_us", depots, "inca_controller_handle_seconds", "")
	count("controller.rejected", depots, "inca_controller_rejected_total")
	meanUS("depot.unpack_us", depots, "inca_depot_unpack_seconds", "")
	meanUS("depot.insert_us", depots, "inca_depot_insert_seconds", "")
	meanUS("depot.archive_us", depots, "inca_depot_archive_seconds", "")
	share("depot.archive_applied_share", depots, "inca_depot_archive_applied_total", "inca_depot_archive_matched_total")
	meanUS("query.reports_us", depots, "inca_query_request_seconds", `{handler="reports"}`)
	meanUS("query.cache_us", depots, "inca_query_request_seconds", `{handler="cache"}`)
	share("query.not_modified_share", depots, "inca_query_not_modified_total", "inca_query_conditional_total")
	published := front["inca_feed_events_published_total"]
	meanUS("feed.fanout_us", front, "inca_feed_fanout_seconds", "")
	share("feed.coalesced_share", front, "inca_feed_events_coalesced_total", "inca_feed_events_published_total")
	r.set("feed.observed_share", ratio(float64(own.events), published), int(published), "")
	r.set("feed.resyncs", front["inca_feed_resyncs_total"]+float64(own.resyncs), 1, "")
	count("federation.routed", front, "inca_federation_routed_total")
	count("federation.refused", front, "inca_federation_refused_total")
	count("federation.rerouted", front, "inca_federation_rerouted_total")
	// Shard requests per client read: a scattered read costs one request
	// to every shard, a forwarded read one to the owner.
	shardRequests := front["inca_federated_fanouts_total"]*float64(lr.depots) + front["inca_federated_forwards_total"]
	r.set("federation.fanouts_per_read", ratio(shardRequests, float64(own.reads)), int(own.reads), "")
	count("federation.shard_errors", front, "inca_federated_shard_errors_total")
	meanUS("wire.batch_flush_us", front, "inca_wire_batch_flush_seconds", "")
	count("wire.batch_requeued", front, "inca_wire_batch_requeued_total")

	r.set("depot.disk_bytes_per_report", diskPerReport, 1, "")
	r.set("bench.host_factor", median(lr.host), len(lr.host), "")
	r.set("bench.drain_s", lr.drain.Seconds(), 1, "")
	lateMS, _ := percentileMS(own.late, 95)
	r.set("bench.pacer_late_p95_ms", lateMS, len(own.late), "")
	r.set("bench.build_s", e.build.Seconds(), 1, "")

	// Tracing was off for the first part of the window and on for the rest.
	r.spans = tr.all()
	ops := own.acked + own.reads
	untracedRate := ratio(float64(lr.untracedOps), lr.untracedFor.Seconds())
	tracedRate := ratio(float64(ops-lr.untracedOps), (lr.window - lr.untracedFor).Seconds())
	r.set("bench.trace_overhead_share", 1-ratio(tracedRate, untracedRate), int(ops), "")
	r.set("bench.writer_self_us", 0, 0, "")
	for _, t := range selfTimes(r.spans) {
		if t.Name == "writer.batch" {
			r.set("bench.writer_self_us", float64(t.Self.Microseconds())/float64(t.Count), t.Count, "")
		}
	}
}

// provenance says where a set of numbers was taken.
type provenance struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	SharedCores bool   `json:"generator_and_servers_share_cores"`
}

func newProvenance() provenance {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit,
		// One host: the generator process and every server it spawns run on
		// the same cores.
		SharedCores: true,
	}
}

// printTable writes a run's metrics for a reader, in spec order.
func (r *runResult) printTable(out io.Writer, specs []metricSpec) {
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.4f %-6s n=%-8d %s\n", m.Name, v.Value, v.Unit, v.Samples, v.Note)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) resultLine() resultLine {
	return resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

func (r *runResult) line() string { return jsonString(r.resultLine()) }
