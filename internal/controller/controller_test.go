package controller

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/metrics"
	"inca/internal/report"
	"inca/internal/rrd"
	"inca/internal/wire"
)

var t0 = time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

func sampleReportXML(t *testing.T) []byte {
	t.Helper()
	r := report.New("probe.x", "1.0", "login1", t0)
	r.Body = report.Branch("probe", "x", report.Leaf("ok", "1"))
	data, err := report.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestController(opt Options) (*Controller, *depot.Depot) {
	d := depot.New(nil)
	return New(d, opt), d
}

func TestSubmitStoresInDepot(t *testing.T) {
	c, d := newTestController(Options{})
	id := branch.MustParse("probe=x,resource=login1")
	resp, err := c.Submit(id, "login1", sampleReportXML(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReportSize == 0 || resp.CacheSize == 0 || resp.Elapsed <= 0 {
		t.Fatalf("response = %+v", resp)
	}
	if d.Cache().Count() != 1 {
		t.Fatal("report not cached")
	}
	stored, _ := d.Cache().Reports(branch.ID{})
	if !stored[0].ID.Equal(id) {
		t.Fatalf("stored under %s", stored[0].ID)
	}
	if !bytes.Contains(stored[0].XML, []byte("probe")) {
		t.Fatalf("payload mangled: %s", stored[0].XML)
	}
}

func TestAllowlistEnforcement(t *testing.T) {
	c, d := newTestController(Options{Allowlist: []string{"login1", "login2"}})
	id := branch.MustParse("probe=x")
	if _, err := c.Submit(id, "login1", sampleReportXML(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(id, "intruder", sampleReportXML(t)); err == nil {
		t.Fatal("unlisted host accepted")
	}
	accepted, rejected, errs := c.Counters()
	if accepted != 1 || rejected != 1 || errs != 0 {
		t.Fatalf("counters = %d,%d,%d", accepted, rejected, errs)
	}
	if d.Cache().Count() != 1 {
		t.Fatal("rejected report reached the depot")
	}
}

func TestEmptyAllowlistAllowsAll(t *testing.T) {
	c, _ := newTestController(Options{})
	if !c.Allowed("anyone") {
		t.Fatal("empty allowlist should allow all")
	}
}

func TestEnvelopeModeRoundTrip(t *testing.T) {
	for _, mode := range []envelope.Mode{envelope.Body, envelope.Attachment} {
		c, d := newTestController(Options{Mode: mode})
		id := branch.MustParse("probe=x")
		if _, err := c.Submit(id, "h", sampleReportXML(t)); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		stored, _ := d.Cache().Reports(branch.ID{})
		if len(stored) != 1 {
			t.Fatalf("%s: stored %d", mode, len(stored))
		}
		if _, err := report.Parse(stored[0].XML); err != nil {
			t.Fatalf("%s: stored report unparseable: %v", mode, err)
		}
	}
}

func TestHandleWireMessages(t *testing.T) {
	reg := metrics.NewRegistry()
	c, d := newTestController(Options{Allowlist: []string{"login1"}, Metrics: reg})
	ack := c.Handle(&wire.Message{Branch: "probe=x", Hostname: "login1", Report: sampleReportXML(t)}, "127.0.0.1:9")
	if !ack.OK {
		t.Fatalf("ack = %+v", ack)
	}
	ack = c.Handle(&wire.Message{Branch: "probe=x", Hostname: "evil", Report: sampleReportXML(t)}, "127.0.0.1:9")
	if ack.OK {
		t.Fatal("unlisted host acked OK")
	}
	ack = c.Handle(&wire.Message{Branch: "not a branch", Hostname: "login1", Report: sampleReportXML(t)}, "127.0.0.1:9")
	if ack.OK {
		t.Fatal("bad branch acked OK")
	}
	if d.Cache().Count() != 1 {
		t.Fatalf("cache count = %d", d.Cache().Count())
	}
	// Every nack is on the ledger: 3 wire messages = 1 accepted + 2 rejected.
	if accepted, rejected, errs := c.Counters(); accepted != 1 || rejected != 2 || errs != 0 {
		t.Fatalf("Counters() = %d accepted, %d rejected, %d errors; want 1, 2, 0", accepted, rejected, errs)
	}
	if got := reg.Counter("inca_controller_rejected_total", "").Value(); got != 2 {
		t.Fatalf("inca_controller_rejected_total = %d, want 2", got)
	}
}

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

func TestEndToEndOverTCP(t *testing.T) {
	c, d := newTestController(Options{Allowlist: []string{"login1"}})
	srv, err := wire.Serve("127.0.0.1:0", c.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 10; i++ {
		ack := sendBare(t, srv.Addr(), &wire.Message{
			Branch:   fmt.Sprintf("probe=p%d,resource=login1", i),
			Hostname: "login1",
			Report:   sampleReportXML(t),
		})
		if !ack.OK {
			t.Fatalf("send %d: %+v", i, ack)
		}
	}
	if d.Cache().Count() != 10 {
		t.Fatalf("cache count = %d", d.Cache().Count())
	}
	if len(c.Responses()) != 10 {
		t.Fatalf("responses = %d", len(c.Responses()))
	}
}

func TestResponseLogAndReset(t *testing.T) {
	fixed := t0.Add(time.Hour)
	c, _ := newTestController(Options{Now: func() time.Time { return fixed }})
	id := branch.MustParse("probe=x")
	if _, err := c.Submit(id, "h", sampleReportXML(t)); err != nil {
		t.Fatal(err)
	}
	rs := c.Responses()
	if len(rs) != 1 || !rs[0].At.Equal(fixed) {
		t.Fatalf("responses = %+v", rs)
	}
	// Returned slice is a copy.
	rs[0].ReportSize = -1
	if c.Responses()[0].ReportSize == -1 {
		t.Fatal("Responses aliases internal log")
	}
	c.ResetResponses()
	if len(c.Responses()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestDepotErrorSurfaces(t *testing.T) {
	c := New(failingDepot{}, Options{})
	if _, err := c.Submit(branch.MustParse("a=1"), "h", sampleReportXML(t)); err == nil {
		t.Fatal("depot error swallowed")
	}
	_, _, errs := c.Counters()
	if errs != 1 {
		t.Fatalf("errs = %d", errs)
	}
}

type failingDepot struct{}

func (failingDepot) StoreEnvelope([]byte) (depot.Receipt, error) {
	return depot.Receipt{}, fmt.Errorf("depot exploded")
}

func TestHandleAuthenticatedHosts(t *testing.T) {
	key := []byte("sdsc-secret")
	c, d := newTestController(Options{
		Allowlist: []string{"login1"},
		Keys:      map[string][]byte{"login1": key},
	})
	rep := sampleReportXML(t)
	// Unsigned message from a keyed host is rejected.
	ack := c.Handle(&wire.Message{Branch: "probe=x", Hostname: "login1", Report: rep}, "r")
	if ack.OK {
		t.Fatal("unsigned message accepted for keyed host")
	}
	// Properly signed message is accepted.
	m := &wire.Message{Branch: "probe=x", Hostname: "login1", Report: rep}
	wire.SignMessage(m, key)
	if ack := c.Handle(m, "r"); !ack.OK {
		t.Fatalf("signed message rejected: %s", ack.Message)
	}
	// Signature under the wrong key is rejected.
	m2 := &wire.Message{Branch: "probe=x", Hostname: "login1", Report: rep}
	wire.SignMessage(m2, []byte("wrong"))
	if ack := c.Handle(m2, "r"); ack.OK {
		t.Fatal("wrongly-signed message accepted")
	}
	if d.Cache().Count() != 1 {
		t.Fatalf("cache count = %d, want 1", d.Cache().Count())
	}
	_, rejected, _ := c.Counters()
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}
}

func TestMaxResponsesRingBuffer(t *testing.T) {
	c, _ := newTestController(Options{MaxResponses: 3})
	reportXML := sampleReportXML(t)
	for i := 0; i < 7; i++ {
		id := branch.MustParse(fmt.Sprintf("probe=p%d", i))
		if _, err := c.Submit(id, "h", reportXML); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Responses()
	if len(got) != 3 {
		t.Fatalf("log holds %d responses, want 3", len(got))
	}
	// The window is the most recent three, in arrival order.
	for i, want := range []string{"probe=p4", "probe=p5", "probe=p6"} {
		if got[i].Branch.String() != want {
			t.Fatalf("responses[%d] = %s, want %s", i, got[i].Branch, want)
		}
	}
	// Evicted entries still count as accepted.
	accepted, rejected, errs := c.Counters()
	if accepted != 7 || rejected != 0 || errs != 0 {
		t.Fatalf("counters = %d/%d/%d, want 7/0/0", accepted, rejected, errs)
	}
}

// A production server runs with a bounded log for days: both accepted
// totals — Counters() and the registry's — must keep counting however many
// times the window has wrapped.
func TestAcceptedCountsPastResponseWindow(t *testing.T) {
	reg := metrics.NewRegistry()
	c, _ := newTestController(Options{MaxResponses: 4, Metrics: reg})
	reportXML := sampleReportXML(t)
	const n = 4*3 + 1 // three full wraps and one into the fourth
	for i := 0; i < n; i++ {
		if _, err := c.Submit(branch.MustParse(fmt.Sprintf("probe=p%d", i)), "h", reportXML); err != nil {
			t.Fatal(err)
		}
	}
	if accepted, _, _ := c.Counters(); accepted != n {
		t.Fatalf("Counters() accepted = %d after %d submits past a window of 4", accepted, n)
	}
	if got := reg.Counter("inca_controller_accepted_total", "").Value(); got != n {
		t.Fatalf("inca_controller_accepted_total = %d, want %d", got, n)
	}
	log := c.Responses()
	if len(log) != 4 || log[0].Branch.String() != fmt.Sprintf("probe=p%d", n-4) || log[3].Branch.String() != fmt.Sprintf("probe=p%d", n-1) {
		t.Fatalf("log = %d entries, %v … %v", len(log), log[0].Branch, log[len(log)-1].Branch)
	}
}

func TestMaxResponsesZeroIsUnbounded(t *testing.T) {
	c, _ := newTestController(Options{})
	reportXML := sampleReportXML(t)
	for i := 0; i < 5; i++ {
		id := branch.MustParse(fmt.Sprintf("probe=p%d", i))
		if _, err := c.Submit(id, "h", reportXML); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Responses(); len(got) != 5 {
		t.Fatalf("log holds %d responses, want 5", len(got))
	}
	accepted, _, _ := c.Counters()
	if accepted != 5 {
		t.Fatalf("accepted = %d, want 5", accepted)
	}
}

func TestMaxResponsesResetRestartsWindow(t *testing.T) {
	c, _ := newTestController(Options{MaxResponses: 2})
	reportXML := sampleReportXML(t)
	for i := 0; i < 5; i++ {
		c.Submit(branch.MustParse(fmt.Sprintf("probe=a%d", i)), "h", reportXML)
	}
	c.ResetResponses()
	if len(c.Responses()) != 0 {
		t.Fatal("responses survived reset")
	}
	// The ring must restart cleanly, not resume from a stale head.
	c.Submit(branch.MustParse("probe=b0"), "h", reportXML)
	got := c.Responses()
	if len(got) != 1 || got[0].Branch.String() != "probe=b0" {
		t.Fatalf("responses after reset = %+v", got)
	}
}

// TestHandleAllocationBudget is the allocation gate on the ingest path: one
// wire message through Handle into a depot in the same process — branch
// parse, the indexed cache insert, policy match, value extraction and one
// archive sample, with no envelope in between. What is left is the
// identifier's own copy of the branch text (a received message's text
// aliases its frame), the parsed pairs, the cache's one copy of the report,
// the archive key of the matched policy, and the value boxed for the
// archive update (a tiny allocation, counted about every other message).
func TestHandleAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const budget = 5 // measured
	d := depot.New(depot.NewIndexedCache())
	if err := d.AddPolicy(depot.Policy{
		Name:    "ok",
		Prefix:  branch.MustParse("vo=tg"),
		Path:    "ok,probe=x",
		Archive: rrd.ArchivalPolicy{Step: time.Minute, History: 24 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	c := New(d, Options{Mode: envelope.Body, MaxResponses: 16})
	// One report a minute, marshalled ahead so only Handle is counted:
	// AllocsPerRun calls its function runs+1 times.
	const runs = 200
	reports := make([][]byte, runs+1)
	for i := range reports {
		r := report.New("probe.x", "1.0", "login1", t0.Add(time.Duration(i+1)*time.Minute))
		r.Body = report.Branch("probe", "x", report.Leaf("ok", "1"))
		data, err := report.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = data
	}
	msg := &wire.Message{Hostname: "login1", Branch: "probe=x,resource=login1,vo=tg"}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		msg.Report = reports[next]
		next++
		if ack := c.Handle(msg, "login1"); !ack.OK {
			t.Fatal(ack.Message)
		}
	})
	if got := d.Stats().Archive.Applied; got != runs+1 {
		t.Fatalf("%d archive samples from %d handled messages: the path measured is not the whole path", got, runs+1)
	}
	if allocs > budget {
		t.Fatalf("%.0f allocations per handled message, budget %d", allocs, budget)
	}
}
