package inca_test

import (
	"bytes"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"inca/internal/agent"
	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/core"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/query"
	"inca/internal/simtime"
	"inca/internal/wire"
)

// sendBare dials addr and makes one bare exchange with the exported codec —
// a message frame out, an ack frame back — the probe for the wire server's
// single-message branch, which no client in this repo writes to.
func sendBare(t *testing.T, addr string, m *wire.Message) *wire.Ack {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, m); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.ReadAck(conn)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestFullTopologyOverSockets exercises the complete deployment over real
// transports, as `inca-server -federate` runs it: two agents with
// authenticated wire connections to the ring router, which forwards each
// report to the shard that owns its branch; every shard is a depot behind
// its own controller (allowlist and per-host keys), wire server and HTTP
// query server. A data consumer then fetches one merged cache from the
// federated query tier and evaluates the service agreement; finally, each
// depot snapshot survives a save/restore cycle.
func TestFullTopologyOverSockets(t *testing.T) {
	start := time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewSim(start)
	grid := core.DemoGrid(9, start.Add(-24*time.Hour))
	hosts := []string{"login.sitea.example.org", "login.siteb.example.org"}
	keys := map[string][]byte{
		hosts[0]: []byte("key-sitea"),
		hosts[1]: []byte("key-siteb"),
	}

	// Two shard stacks: depot, authenticating controller on TCP, query
	// server on HTTP.
	var depots []*depot.Depot
	controllers := map[string]*controller.Controller{} // by ring name
	shards := make([]federation.Shard, 2)
	for i := range shards {
		d := depot.New(nil)
		ctl := controller.New(d, controller.Options{
			Allowlist: hosts,
			Keys:      keys,
			Mode:      envelope.Attachment,
		})
		tcpSrv, err := wire.Serve("127.0.0.1:0", ctl.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer tcpSrv.Close()
		httpSrv := httptest.NewServer(query.NewServer(d).Handler())
		defer httpSrv.Close()
		shards[i] = federation.Shard{Wire: tcpSrv.Addr(), HTTP: httpSrv.URL}
		depots = append(depots, d)
		controllers[shards[i].Name()] = ctl
	}

	// The router in front, on TCP for agents and HTTP for consumers.
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	routerSrv, err := wire.Serve("127.0.0.1:0", router.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer routerSrv.Close()
	tier := query.NewFederated(router, query.FederatedOptions{})
	defer tier.Close()
	tierSrv := httptest.NewServer(tier.Handler())
	defer tierSrv.Close()

	// Agents: demo spec per host, signed wire sinks, every-minute cron.
	var agents []*agent.Agent
	var sinks []*agent.WireSink
	for _, host := range hosts {
		spec, err := core.DemoSpec(grid, host, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := agent.NewWireSink(routerSrv.Addr(), agent.DeliveryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sink.Key = keys[host]
		defer sink.Close()
		sinks = append(sinks, sink)
		a, err := agent.New(spec, clock, sink, agent.Simulated)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}

	// Replay five virtual minutes, then wait out each hop's custody: the
	// agents' spools first, then the router's queues.
	core.DriveAgents(clock, agents, start.Add(5*time.Minute))
	for _, sink := range sinks {
		if err := sink.Drain(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.Drain(); err != nil {
		t.Fatal(err)
	}

	// Each site's subtree has one owner (both sites may share it): require
	// all data present across the shards and nothing refused.
	total := 0
	for _, d := range depots {
		total += d.Cache().Count()
	}
	wantSeries := agents[0].SeriesCount() + agents[1].SeriesCount()
	if total != wantSeries {
		t.Fatalf("cached %d entries, want %d", total, wantSeries)
	}
	accepted := 0
	for name, ctl := range controllers {
		a, rejected, errs := ctl.Counters()
		if rejected != 0 || errs != 0 {
			t.Fatalf("shard %s controller rejected=%d errs=%d", name, rejected, errs)
		}
		accepted += a
	}
	if accepted != wantSeries*5 {
		t.Fatalf("accepted %d, want %d (5 minutes of every-minute series)", accepted, wantSeries*5)
	}

	// An unsigned submission for a keyed host: the router's ack is only a
	// custody transfer, so it acks; the owning shard's controller refuses
	// the message, and nothing is stored.
	ack := sendBare(t, routerSrv.Addr(), &wire.Message{Branch: "x=1", Hostname: hosts[0], Report: []byte("<r/>")})
	if !ack.OK {
		t.Fatalf("router refused custody: %s", ack.Message)
	}
	if err := router.Drain(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("drain after the rogue message: %v, want the shard's refusal", err)
	}
	rogueID := branch.MustParse("x=1")
	for name, ctl := range controllers {
		want := 0
		if name == router.Ring().Owner(rogueID) {
			want = 1
		}
		if _, rejected, _ := ctl.Counters(); rejected != want {
			t.Fatalf("shard %s controller rejected %d, want %d", name, rejected, want)
		}
	}

	// Data consumer: one /cache from the federated tier, verified against
	// the agreement.
	dump, err := query.NewClient(tierSrv.URL).Cache("")
	if err != nil {
		t.Fatal(err)
	}
	merged, err := depot.LoadDump(dump, branch.ID{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count() != wantSeries {
		t.Fatalf("federated /cache holds %d entries, want %d", merged.Count(), wantSeries)
	}
	for _, c := range []depot.Cache{merged, depots[0].Cache(), depots[1].Cache()} {
		if _, ok, err := c.Query(rogueID); err != nil || ok {
			t.Fatalf("rogue report cached (ok=%v err=%v)", ok, err)
		}
	}
	ag := &agreement.Agreement{
		Name: "samplegrid agreement",
		VO:   "samplegrid",
		Packages: []agreement.PackageReq{
			{Name: "globus", Category: agreement.Grid, Version: agreement.Constraint{Op: ">=", Version: "2.4.0"}, UnitTest: true},
			{Name: "mpich", Category: agreement.Development, Version: agreement.Constraint{Op: "any"}},
		},
		Services: []agreement.ServiceReq{{Name: "gram-gatekeeper", Category: agreement.Grid, CrossSite: true}},
	}
	status, err := agreement.Evaluate(ag, merged, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Resources) != 2 {
		t.Fatalf("evaluated %d resources", len(status.Resources))
	}
	for _, rs := range status.Resources {
		if fails := rs.Failures(); len(fails) != 0 {
			t.Fatalf("%s failures: %+v", rs.Resource, fails)
		}
	}
	summary := consumer.SummaryText(status)
	if !strings.Contains(summary, "100%") {
		t.Fatalf("summary:\n%s", summary)
	}

	// Snapshot round trip on each back end.
	for i, d := range depots {
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatalf("shard %d snapshot: %v", i, err)
		}
		back, err := depot.ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("shard %d restore: %v", i, err)
		}
		if back.Cache().Count() != d.Cache().Count() {
			t.Fatalf("shard %d: restored %d entries, want %d", i, back.Cache().Count(), d.Cache().Count())
		}
	}
}
