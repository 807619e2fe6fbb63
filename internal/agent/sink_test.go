package agent

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
	"inca/internal/reporter"
	"inca/internal/schedule"
	"inca/internal/simtime"
	"inca/internal/wire"
)

// verifyingServer acks messages signed under key and refuses the rest.
func verifyingServer(t *testing.T, key []byte, got *atomic.Int64) *wire.Server {
	t.Helper()
	srv, err := wire.Serve("127.0.0.1:0", func(m *wire.Message, remote string) *wire.Ack {
		if !wire.Verify(m, key) {
			return &wire.Ack{OK: false, Message: "bad signature"}
		}
		got.Add(1)
		return &wire.Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func newTestSink(t *testing.T, addr string, opt DeliveryOptions) *WireSink {
	t.Helper()
	s, err := NewWireSink(addr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWireSinkSubmitAndAuth(t *testing.T) {
	key := []byte("secret")
	var got atomic.Int64
	srv := verifyingServer(t, key, &got)
	s := newTestSink(t, srv.Addr(), DeliveryOptions{})
	defer s.Close()

	// Unsigned sink → Submit spools, the server refuses, and the refusal is
	// on the ledger, not on Submit.
	if err := s.Submit(branch.MustParse("a=1"), "h", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ds := s.DeliveryStats(); ds.Rejected != 1 || ds.Replayed != 0 || got.Load() != 0 {
		t.Fatalf("unsigned submit: stats %+v, server stored %d", ds, got.Load())
	}

	// Signed sink → accepted.
	s.Key = key
	if err := s.Submit(branch.MustParse("a=1"), "h", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ds := s.DeliveryStats(); ds.Rejected != 1 || ds.Replayed != 1 || got.Load() != 1 {
		t.Fatalf("signed submit: stats %+v, server stored %d", ds, got.Load())
	}
}

// TestWireSinkTransportError: an unreachable controller costs buffering,
// not an error and not the report — and both the redelivery backoff and
// Drain's deadline run on the injected clock, so a virtual second passes
// with no wall-clock wait.
func TestWireSinkTransportError(t *testing.T) {
	sim := simtime.NewSim(time.Unix(0, 0))
	s := newTestSink(t, "127.0.0.1:1", DeliveryOptions{Clock: sim}) // nothing listens there
	defer s.Close()
	if err := s.Submit(branch.MustParse("a=1"), "h", []byte("<r/>")); err != nil {
		t.Fatalf("submit against a dead server: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Drain(time.Second) }()
	awaitTimers(t, sim, 2) // the loop's backoff and Drain's deadline
	sim.Advance(time.Second)
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "1 reports still spooled") {
			t.Fatalf("drain err = %v, want a timeout naming the spooled report", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not expire on the injected clock")
	}
	if ds := s.DeliveryStats(); ds.Spooled != 1 || ds.Depth != 1 || ds.Dropped != 0 || ds.Replayed != 0 {
		t.Fatalf("delivery stats = %+v", ds)
	}
}

// awaitTimers blocks until n timers are pending on the virtual clock: the
// delivery loop parked in its backoff, plus any Drain waiting beside it.
func awaitTimers(t *testing.T, sim *simtime.Sim, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) // safety net, never hit on the passing path
	for sim.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers pending on the injected clock, want %d", sim.Pending(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle steps the virtual clock past each redelivery backoff until the
// spool is empty.
func settle(t *testing.T, s *WireSink, sim *simtime.Sim) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second) // safety net, never hit on the passing path
	for s.DeliveryStats().Depth > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("spool never emptied: %+v", s.DeliveryStats())
		}
		if !sim.Step() {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestAgentRunLiveFiresOnSchedule drives the live Run loop against the
// real clock with an every-minute cron. To keep the test fast, the clock
// is a Sim that a helper goroutine advances — Run only interacts with the
// Clock interface, so this exercises the same code path.
func TestAgentRunLoopWithSimClock(t *testing.T) {
	sim := simtime.NewSim(time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC))

	spec := Spec{
		Resource: "h",
		Series: []Series{{
			Reporter: &reporter.Func{ReporterName: "probe.tick", Fn: func(ctx *reporter.Context, rep *report.Report) {
				rep.Body = report.Branch("t", "1", report.Leaf("ok", "1"))
			}},
			Branch: branch.MustParse("probe=tick"),
			Cron:   schedule.MustParseCron("* * * * *"),
		}},
	}
	var delivered atomic.Int64
	sink := SinkFunc(func(branch.ID, string, []byte) error {
		delivered.Add(1)
		return nil
	})
	a, err := New(spec, sim, sink, Live)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()
	// March the clock minute by minute; give the Run goroutine a moment to
	// register its timer before each advance.
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < 3 && time.Now().Before(deadline) {
		if sim.Pending() > 0 {
			sim.Step()
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	// Unblock the scheduler if it is waiting on the clock.
	for i := 0; i < 10; i++ {
		sim.Advance(time.Minute)
		select {
		case <-done:
			i = 10
		case <-time.After(20 * time.Millisecond):
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit")
	}
	if delivered.Load() < 3 {
		t.Fatalf("delivered %d reports, want >= 3", delivered.Load())
	}

	if a.Resource() != "h" || a.SeriesCount() != 1 {
		t.Fatal("accessors wrong")
	}
}

func TestWireSinkBatchedDeliversAll(t *testing.T) {
	key := []byte("secret")
	var got atomic.Int64
	srv := verifyingServer(t, key, &got)
	s := newTestSink(t, srv.Addr(), DeliveryOptions{})
	s.Key = key
	const total = 100 // several frames' worth
	for i := 0; i < total; i++ {
		if err := s.Submit(branch.MustParse("a=1"), "h", []byte("<r/>")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != total {
		t.Fatalf("server got %d, want %d", got.Load(), total)
	}
	if ds := s.DeliveryStats(); ds.Replayed != total || ds.Depth != 0 {
		t.Fatalf("delivery stats = %+v", ds)
	}
}
