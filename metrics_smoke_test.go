package inca_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"inca/internal/agent"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/federation"
	"inca/internal/metrics"
	"inca/internal/query"
	"inca/internal/simtime"
	"inca/internal/wire"
)

// TestMetricsSmoke drives the full pipeline — agent over a real TCP wire
// into the controller, depot, query
// interface on HTTP — with one shared registry, then scrapes /metrics and
// checks the exposition is valid Prometheus text covering every stage.
// This is the `make metrics-smoke` gate.
func TestMetricsSmoke(t *testing.T) {
	start := time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(start)
	grid := core.DemoGrid(3, start.Add(-24*time.Hour))
	host := "login.sitea.example.org"

	reg := metrics.NewRegistry()
	d := depot.NewWithOptions(nil, depot.Options{Metrics: reg})
	defer d.Close()
	if err := d.AddPolicy(consumer.AvailabilityPolicy()); err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(d, controller.Options{Metrics: reg})
	tcpSrv, err := wire.ServeOptions("127.0.0.1:0", ctl.Handle, wire.ServerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()

	spec, err := core.DemoSpec(grid, host, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := agent.NewWireSink(tcpSrv.Addr(), agent.DeliveryOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	a, err := agent.NewMetrics(spec, clock, sink, agent.Simulated, reg)
	if err != nil {
		t.Fatal(err)
	}

	core.DriveAgents(clock, []*agent.Agent{a}, start.Add(3*time.Minute))
	if err := sink.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	qsrv := query.NewServerMetrics(d, reg)
	hs := httptest.NewServer(qsrv.Handler())
	defer hs.Close()

	// A read request first, so the query histogram has an observation.
	if resp, err := http.Get(hs.URL + "/stats"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	families, err := metrics.Lint(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}

	// Every pipeline stage must be represented.
	want := []string{
		// agent
		"inca_agent_runs_total",
		"inca_agent_execute_seconds",
		"inca_agent_submit_seconds",
		// scheduler (inside the agent)
		"inca_scheduler_runs_total",
		"inca_scheduler_entries",
		// wire, both sides
		"inca_agent_spool_depth",
		"inca_wire_batch_acked_total",
		"inca_wire_batch_flush_seconds",
		"inca_wire_server_messages_total",
		"inca_wire_server_batches_total",
		"inca_wire_server_connections_total",
		"inca_wire_server_idle_closed_total",
		// controller
		"inca_controller_accepted_total",
		"inca_controller_handle_seconds",
		// depot, including the archive path
		"inca_depot_received_total",
		"inca_depot_insert_seconds",
		"inca_depot_insert_fallback_total",
		"inca_depot_archive_seconds",
		"inca_depot_archive_applied_total",
		"inca_depot_archive_matched_total",
		"inca_depot_bytes_total",
		"inca_depot_cache_bytes",
		"inca_depot_cache_entries",
		"inca_depot_archives",
		// query read side
		"inca_query_request_seconds",
		"inca_query_hits_total",
		"inca_query_misses_total",
		"inca_query_conditional_total",
		"inca_query_not_modified_total",
		"inca_query_availability_memo_hits_total",
		"inca_query_availability_renders_total",
	}
	for _, name := range want {
		if _, ok := families[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}

	// The counters must show the traffic actually flowed: three virtual
	// minutes of every-minute series through the whole pipeline.
	wantRuns := a.SeriesCount() * 3
	for _, line := range []string{
		"inca_agent_runs_total", "inca_wire_batch_acked_total",
		"inca_wire_server_messages_total", "inca_controller_accepted_total",
		"inca_depot_received_total",
	} {
		if !strings.Contains(text, line+" "+strconv.Itoa(wantRuns)) {
			t.Errorf("%s != %d in exposition", line, wantRuns)
		}
	}
	// Every reporter here marshals with encoding/xml, so no insert should
	// have needed the tokenising path.
	if !strings.Contains(text, "inca_depot_insert_fallback_total 0\n") {
		t.Errorf("inca_depot_insert_fallback_total != 0 in exposition")
	}
}

// TestMetricsSmokeRouter is the same gate for the federated tier's own
// registry: a router over two in-process shards answers one scatter-merge
// read per endpoint, and its /metrics must lint and carry the per-endpoint
// latency histogram, the merge instruments, the feed telemetry and every
// read, routing and custody counter the router keeps.
func TestMetricsSmokeRouter(t *testing.T) {
	reg := metrics.NewRegistry()
	shards := make([]federation.Shard, 2)
	depots := map[string]*depot.Depot{}
	for i := range shards {
		d := depot.New(depot.NewIndexedCache())
		hs := httptest.NewServer(query.NewServer(d).Handler())
		defer hs.Close()
		shards[i] = federation.Shard{Wire: "shard" + strconv.Itoa(i), HTTP: hs.URL}
		depots[shards[i].Name()] = d
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	holding := map[string]bool{}
	for s := 0; len(holding) < len(shards); s++ {
		if s == 64 {
			t.Fatal("ring never split 64 sites over both shards")
		}
		id := branch.MustParse("probe=p,site=s" + strconv.Itoa(s) + ",vo=tg")
		owner := router.Ring().Owner(id)
		if _, err := depots[owner].Cache().Update(id, []byte("<r><v>1</v></r>")); err != nil {
			t.Fatal(err)
		}
		holding[owner] = true
	}
	tier := query.NewFederated(router, query.FederatedOptions{Metrics: reg})
	defer tier.Close()
	hs := httptest.NewServer(tier.Handler())
	defer hs.Close()

	merged := 0
	for _, path := range []string{"/cache", "/reports"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("%s: status %d, %d bytes", path, resp.StatusCode, n)
		}
		merged += int(n)
	}
	// Routes that merge nothing are timed all the same: the shard totals,
	// and a forward to the owner of a series nobody archived.
	for path, want := range map[string]int{
		"/stats": http.StatusOK,
		"/archive?branch=probe%3Dp%2Csite%3Ds0%2Cvo%3Dtg&policy=none&start=2004-07-07T00:00:00Z&end=2004-07-08T00:00:00Z": http.StatusNotFound,
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	families, err := metrics.Lint(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, name := range []string{
		"inca_query_request_seconds",
		"inca_federated_fanouts_total",
		"inca_federated_merges_total",
		"inca_federated_merge_seconds",
		"inca_federated_merge_bytes_total",
		"inca_federated_merge_scans_total",
		"inca_federated_forwards_total",
		"inca_federated_conditional_total",
		"inca_federated_not_modified_total",
		"inca_federated_shard_errors_total",
		// the feed's fan-ins
		"inca_feed_subscribers",
		"inca_feed_events_published_total",
		"inca_feed_resyncs_total",
		// routing and custody
		"inca_federation_routed_total",
		"inca_federation_rerouted_total",
		"inca_federation_unroutable_total",
		"inca_federation_refused_total",
		"inca_federation_reroute_dropped_total",
		"inca_federation_replica_shed_total",
		"inca_federation_promotions_total",
		// the router's shard clients
		"inca_wire_batch_acked_total",
		"inca_wire_batch_rejected_total",
		"inca_wire_batch_requeued_total",
		"inca_wire_batch_dropped_total",
		"inca_wire_batch_redials_total",
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("family %s missing from the router's /metrics", name)
		}
	}
	for _, line := range []string{
		`inca_query_request_seconds_count{handler="cache"} 1`,
		`inca_query_request_seconds_count{handler="reports"} 1`,
		`inca_query_request_seconds_count{handler="stats"} 1`,
		`inca_query_request_seconds_count{handler="archive"} 1`,
		"inca_federated_merge_seconds_count 2",
		"inca_federated_merge_bytes_total " + strconv.Itoa(merged),
	} {
		if !strings.Contains(text, line) {
			t.Errorf("%q not in the router's exposition", line)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}
