package main

// This file is the benchmark's contract in one place: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root repeats it for the driver;
// a test holds the two together.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// mix is the traffic of one load phase.
type mix struct {
	writers    int  // closed-loop writers: a batch of 8, then wait for its ack vector
	pacedBurst int  // >0: one open-loop writer instead, this many batches once a second
	reader     bool // closed-loop reader: 12 subtree reads to 4 revalidations
	subscriber bool // passive /feed subscriber on the whole tree

	// fixedPerSecond > 0 makes the measured part fixed work: this many
	// reports per requested second, however long they take. A faster ingest
	// then does not lengthen the log its own recovery has to replay.
	fixedPerSecond int
}

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	Name string
	Why  string

	// unlisted keeps a workload out of BENCHMARK.json: the program runs it
	// and prints its figures, the driver does not gate on them.
	unlisted  bool
	federated bool // -federate router over two shard processes
	disk      bool // -storage disk, and a SIGKILL and restart after the load
	sites     int
	probes    int
	mix
}

const (
	sitesFull  = 32 // x 32 probes = 1024 branches of 851 B: the paper's 928 KB cache
	probesFull = 32
)

var workloads = []*workload{
	{
		Name:  "ingest_small",
		Why:   "Write path only: 2 closed-loop writers saturate wire, controller, envelope, depot insert, extract and rrd on one memory depot; query, feed, federation and disk do nothing.",
		sites: sitesFull, probes: probesFull, mix: mix{writers: 2},
	},
	{
		Name:  "dashboard_read",
		Why:   "Read path beside writes: 1 closed-loop reader (12 subtree : 4 revalidate) while a paced writer bursts 200 reports a second, so a dearer Dump or subtree read shows; paced arrival gives clean freshness.",
		sites: sitesFull, probes: probesFull, mix: mix{pacedBurst: 25, reader: true, subscriber: true},
	},
	{
		Name:      "federated_mixed",
		Why:       "Router over 2 shards, 1 closed-loop writer and 1 closed-loop reader: the router ack is only a custody transfer and reads pay the scatter fan-out, all of which the single-depot workloads bypass.",
		federated: true, sites: sitesFull, probes: probesFull, mix: mix{writers: 1, reader: true, subscriber: true},
	},
	// Not of record: an evicted archive handle is fsynced, so this is a
	// thousand fsyncs a second on a virtual disk shared with the host's other
	// tenants, and in the driver's own check the same code spread 7 % in one
	// set of ten runs and 58 % (1340 % on one figure) in the next.
	{
		Name:     "disk_archive",
		Why:      "-storage disk with 512 archive series, 8 times the 64-handle LRU: fixed work through WAL, rrd.file and handle eviction, then SIGKILL and replay; the memory workloads never touch these layers.",
		unlisted: true, disk: true,
		sites: 16, probes: probesFull, mix: mix{writers: 2, fixedPerSecond: 500},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// endToEnd lists what the system's users feel: a reporter (acceptance rate
// and ack latency), a consumer (read latency, how old the data is when it
// arrives), and the operator (CPU, memory). The driver wants every one of
// them from every workload; README.md says where each comes from on a
// workload whose window does not contain it.
//
// A bound belongs to a metric, not to a pair of metric and workload, and the
// driver refuses a benchmark whose own runs spread past a bound. On this
// shared host ten runs of one commit can spread 17 to 29 % on every timing as
// measured and 3 to 13 % once corrected for the host's speed (README.md has
// the measurements), and the driver cannot choose its hour, so every metric
// has the driver's maximum. Memory needs it too: the server keeps every
// controller response, so on ingest_small it grows with the reports stored.
const noisy = 0.25

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: noisy},
	{Name: "ingest_reports_per_s", Unit: "1/s", Better: "higher", Bound: noisy},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Better: "lower", Bound: noisy},
	{Name: "subtree_p50_ms", Unit: "ms", Better: "lower", Bound: noisy},
	{Name: "revalidate_p50_ms", Unit: "ms", Better: "lower", Bound: noisy},
	{Name: "server_cpu_s_per_kop", Unit: "s", Better: "lower", Bound: noisy},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: noisy},
}

// perLayer lists the single-layer metrics of the traced run. They carry no
// bound; README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	// Whole-window figures of the traced run that no bound can hold on this
	// host (README.md): the reader's rate, which as the inverse of a mean
	// follows every stall; exec to listening banner, a replay of the log
	// only on the unlisted disk workload; and the tails of the three
	// end-to-end timings. Zero where the window has no such operation.
	{Name: "read_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "freshness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_s", Unit: "s", Better: "lower"},
	{Name: "ingest_ack_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "subtree_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "freshness_p95_ms", Unit: "ms", Better: "lower"},
	// From /metrics deltas around the traced window (the server's own counters).
	{Name: "wire.server_msgs_per_batch", Unit: "count", Better: "higher"},
	{Name: "controller.handle_us", Unit: "us", Better: "lower"},
	{Name: "controller.rejected", Unit: "count", Better: "lower"},
	{Name: "depot.unpack_us", Unit: "us", Better: "lower"},
	{Name: "depot.insert_us", Unit: "us", Better: "lower"},
	{Name: "depot.archive_us", Unit: "us", Better: "lower"},
	{Name: "depot.archive_applied_share", Unit: "share", Better: "higher"},
	{Name: "query.reports_us", Unit: "us", Better: "lower"},
	{Name: "query.cache_us", Unit: "us", Better: "lower"},
	{Name: "query.not_modified_share", Unit: "share", Better: "higher"},
	{Name: "feed.fanout_us", Unit: "us", Better: "lower"},
	{Name: "feed.coalesced_share", Unit: "share", Better: "lower"},
	{Name: "feed.observed_share", Unit: "share", Better: "higher"},
	{Name: "feed.resyncs", Unit: "count", Better: "lower"},
	{Name: "federation.routed", Unit: "count", Better: "higher"},
	{Name: "federation.refused", Unit: "count", Better: "lower"},
	{Name: "federation.rerouted", Unit: "count", Better: "lower"},
	{Name: "federation.fanouts_per_read", Unit: "count", Better: "lower"},
	{Name: "federation.shard_errors", Unit: "count", Better: "lower"},
	{Name: "wire.batch_flush_us", Unit: "us", Better: "lower"},
	{Name: "wire.batch_requeued", Unit: "count", Better: "lower"},
	// From the run itself.
	{Name: "depot.disk_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
	{Name: "bench.drain_s", Unit: "s", Better: "lower"},
	{Name: "bench.pacer_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.writer_self_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.build_s", Unit: "s", Better: "lower"},
	// From the in-process micro-trace: each layer's public functions on the
	// same generated inputs, no sockets.
	{Name: "wire.encode_batch_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_batch_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_msg_us.45527", Unit: "us", Better: "lower"},
	{Name: "envelope.encode_us.851", Unit: "us", Better: "lower"},
	{Name: "envelope.decode_us.851", Unit: "us", Better: "lower"},
	{Name: "envelope.decode_us.45527", Unit: "us", Better: "lower"},
	{Name: "controller.handle_self_us", Unit: "us", Better: "lower"},
	{Name: "depot.cache_update_us", Unit: "us", Better: "lower"},
	{Name: "depot.cache_query_exact_us", Unit: "us", Better: "lower"},
	{Name: "depot.cache_reports_subtree_us", Unit: "us", Better: "lower"},
	{Name: "depot.cache_dump_dirty_us", Unit: "us", Better: "lower"},
	{Name: "depot.cache_dump_clean_us", Unit: "us", Better: "lower"},
	{Name: "report.extract_us", Unit: "us", Better: "lower"},
	{Name: "report.parse_us", Unit: "us", Better: "lower"},
	{Name: "rrd.update_us", Unit: "us", Better: "lower"},
	{Name: "rrd.file.update_us", Unit: "us", Better: "lower"},
	{Name: "rrd.file.open_us", Unit: "us", Better: "lower"},
	{Name: "depot.disk_store_nopolicy_us", Unit: "us", Better: "lower"},
	{Name: "depot.disk_store_us", Unit: "us", Better: "lower"},
	{Name: "depot.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "depot.replay_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "federation.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "federation.router_handle_us", Unit: "us", Better: "lower"},
	{Name: "federation.merge_cache_us", Unit: "us", Better: "lower"},
	{Name: "federation.merge_reports_us", Unit: "us", Better: "lower"},
	{Name: "query.handler_subtree_us", Unit: "us", Better: "lower"},
	{Name: "query.handler_304_us", Unit: "us", Better: "lower"},
	{Name: "query.handler_full_us", Unit: "us", Better: "lower"},
	{Name: "query.federated_304_us", Unit: "us", Better: "lower"},
	{Name: "query.federated_subtree_us", Unit: "us", Better: "lower"},
	{Name: "feed.publish_to_drain_us", Unit: "us", Better: "lower"},
	{Name: "agent.spool_put_take_us", Unit: "us", Better: "lower"},
	{Name: "branch.parse_ns", Unit: "ns", Better: "lower"},
}
