package federation

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/simtime"
	"inca/internal/wire"
)

// sinkServer is an in-process shard stand-in: a wire server that acks
// everything and records the branches it received.
type sinkServer struct {
	srv *wire.Server

	mu       sync.Mutex
	branches map[string]int
}

func newSinkServer(t *testing.T) *sinkServer {
	t.Helper()
	s := &sinkServer{branches: make(map[string]int)}
	srv, err := wire.Serve("127.0.0.1:0", func(m *wire.Message, remote string) *wire.Ack {
		s.mu.Lock()
		s.branches[m.Branch]++
		s.mu.Unlock()
		return &wire.Ack{OK: true}
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	s.srv = srv
	t.Cleanup(func() { srv.Close() })
	return s
}

func (s *sinkServer) addr() string { return s.srv.Addr() }

// unique reports how many distinct branches the server has seen.
func (s *sinkServer) unique() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.branches)
}

// deadAddr returns an address nothing listens on: bind, read the port,
// close. Dials fail fast with connection refused.
func deadAddr(t *testing.T) string {
	t.Helper()
	srv, err := wire.Serve("127.0.0.1:0", func(m *wire.Message, remote string) *wire.Ack { return &wire.Ack{OK: true} })
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	addr := srv.Addr()
	srv.Close()
	return addr
}

// testBatch keeps the router's clients fast and deterministic under test.
func testBatch() wire.BatchOptions {
	return wire.BatchOptions{FlushInterval: 5 * time.Millisecond, DialTimeout: 500 * time.Millisecond, IOTimeout: 2 * time.Second}
}

// branchesOwnedBy mirrors the router's ring locally and returns n
// branches owned by each named member.
func branchesOwnedBy(t *testing.T, ring *Ring, owner string, n int) []branch.ID {
	t.Helper()
	var out []branch.ID
	for site := 0; len(out) < n && site < 4000; site++ {
		id := branch.MustParse(fmt.Sprintf("probe=px,site=s%04d,vo=tg", site))
		if ring.Owner(id) == owner {
			out = append(out, id)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d branches owned by %s", n, owner)
	}
	return out
}

func handleAll(t *testing.T, r *Router, ids []branch.ID) {
	t.Helper()
	for _, id := range ids {
		ack := r.Handle(&wire.Message{Branch: id.String(), Hostname: "test", Report: []byte("<r/>")}, "test")
		if !ack.OK {
			t.Fatalf("handle %s: nacked: %s", id, ack.Message)
		}
	}
}

// TestLeaveSuccessorUnreachable drives the double-failure path the PR 6
// code silently lost messages on: shard B dies with messages queued, and
// the successor C is unreachable too. Every harvested orphan must remain
// accounted — parked in C's queue (rerouted), or counted as dropped —
// and once C's ranges finally land on a live shard (Leave(C)), every
// message must arrive. The routed/rerouted/unroutable/dropped ledger has
// to reconcile at each step.
func TestLeaveSuccessorUnreachable(t *testing.T) {
	live := newSinkServer(t)
	deadB := deadAddr(t)
	deadC := deadAddr(t)

	r, err := NewRouter([]Shard{{Wire: live.addr()}, {Wire: deadB}, {Wire: deadC}}, RouterOptions{Batch: testBatch()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const perShard = 20
	idsB := branchesOwnedBy(t, r.Ring(), deadB, perShard)
	handleAll(t, r, idsB)

	// Kill... B never lived. Drop it; its orphans re-route to A or C.
	moved, lost, err := r.Leave(deadB)
	if err != nil {
		t.Fatalf("leave B: %v", err)
	}
	if lost != 0 {
		t.Fatalf("leave B lost %d messages with live successors available", lost)
	}
	if moved != perShard {
		t.Fatalf("leave B re-routed %d of %d", moved, perShard)
	}
	st := r.Stats()
	if st.Rerouted != perShard || st.RerouteDropped != 0 || st.Unroutable != 0 {
		t.Fatalf("ledger after leave B: %+v", st)
	}

	// Now drop the (still unreachable) successor C: whatever landed on C
	// must re-route again to A — messages survive two failures back to
	// back. Drain() must cover the re-routed messages (the barrier the
	// old code could not give them).
	if _, lost, err = r.Leave(deadC); err != nil {
		t.Fatalf("leave C: %v", err)
	}
	if lost != 0 {
		t.Fatalf("leave C lost %d messages", lost)
	}
	if err := r.Drain(); err != nil {
		t.Fatalf("drain after double failure: %v", err)
	}
	if got := live.unique(); got != perShard {
		t.Fatalf("live shard received %d of %d branches after double failure", got, perShard)
	}
	st = r.Stats()
	if st.Routed != perShard || st.RerouteDropped != 0 || st.Unroutable != 0 {
		t.Fatalf("final ledger does not reconcile: %+v", st)
	}
}

// TestLeaveOrphanAccounting plants a poison orphan (an unparseable
// branch, which Handle would have refused — the defensive path) directly
// in a shard's queue and proves Leave counts it into unroutable instead
// of silently skipping it, while every well-formed orphan still moves.
func TestLeaveOrphanAccounting(t *testing.T) {
	live := newSinkServer(t)
	deadB := deadAddr(t)
	r, err := NewRouter([]Shard{{Wire: live.addr()}, {Wire: deadB}}, RouterOptions{Batch: testBatch()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const good = 10
	ids := branchesOwnedBy(t, r.Ring(), deadB, good)
	handleAll(t, r, ids)
	// The poison pill: bypass Handle's validation, as a corrupted queue
	// entry would.
	r.mu.RLock()
	r.clients[deadB].Enqueue(&wire.Message{Branch: "not//a=branch,,", Hostname: "test"})
	r.mu.RUnlock()

	moved, lost, err := r.Leave(deadB)
	if err != nil {
		t.Fatal(err)
	}
	if moved != good {
		t.Fatalf("moved %d of %d good orphans", moved, good)
	}
	if lost != 1 {
		t.Fatalf("lost = %d, want the 1 poison orphan", lost)
	}
	st := r.Stats()
	if st.Unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1 (the poison orphan must be counted, not skipped)", st.Unroutable)
	}
	if st.Rerouted != good {
		t.Fatalf("rerouted = %d, want %d", st.Rerouted, good)
	}
	if err := r.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := live.unique(); got != good {
		t.Fatalf("live shard received %d of %d", got, good)
	}
}

// TestHandleBacklogRefusal pins the custody contract: when the owning
// shard's backlog is full, Handle must nack — never ack into a queue
// slot that sheds an older accepted message.
func TestHandleBacklogRefusal(t *testing.T) {
	live := newSinkServer(t)
	dead := deadAddr(t)
	bo := testBatch()
	bo.MaxPending = 4
	bo.MaxBatch = 4096 // keep messages buffered, not flushed into flight
	bo.FlushInterval = -1
	r, err := NewRouter([]Shard{{Wire: live.addr()}, {Wire: dead}}, RouterOptions{Batch: bo})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ids := branchesOwnedBy(t, r.Ring(), dead, bo.MaxPending+3)
	acked, refused := 0, 0
	for _, id := range ids {
		if r.Handle(&wire.Message{Branch: id.String(), Hostname: "t"}, "t").OK {
			acked++
		} else {
			refused++
		}
	}
	if acked != bo.MaxPending {
		t.Fatalf("acked %d, want exactly MaxPending=%d", acked, bo.MaxPending)
	}
	if refused != 3 {
		t.Fatalf("refused %d, want 3", refused)
	}
	st := r.Stats()
	if st.Routed != uint64(acked) || st.Refused != uint64(refused) {
		t.Fatalf("ledger: routed=%d refused=%d, want %d/%d", st.Routed, st.Refused, acked, refused)
	}
	for _, ss := range st.Shards {
		if ss.Batch.Dropped != 0 {
			t.Fatalf("shard %s dropped %d messages — custody acks must never shed", ss.Shard.Name(), ss.Batch.Dropped)
		}
	}
}

// TestPromoteFailsOverWithoutRingChange proves the failover shape: the
// primary dies with messages queued, Promote swaps the follower in, the
// ring signature does not change (no branch moves owner), the epoch does
// (validators must not survive), and every queued message — the tee
// copies and the harvested primary queue — lands on the follower.
func TestPromoteFailsOverWithoutRingChange(t *testing.T) {
	other := newSinkServer(t)
	follower := newSinkServer(t)
	deadPrimary := deadAddr(t)

	r, err := NewRouter([]Shard{
		{Wire: other.addr()},
		{Wire: deadPrimary, ReplicaWire: follower.addr(), ReplicaHTTP: "127.0.0.1:1"},
	}, RouterOptions{Batch: testBatch()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ringSigBefore := r.Ring().Signature()
	sigBefore := r.Signature()

	const n = 15
	ids := branchesOwnedBy(t, r.Ring(), deadPrimary, n)
	handleAll(t, r, ids)

	// The tee delivers to the follower even while the primary is dead.
	deadline := time.Now().Add(5 * time.Second)
	for follower.unique() < n {
		if time.Now().After(deadline) {
			t.Fatalf("follower tee received %d of %d before promotion", follower.unique(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	s, moved, err := r.Promote(deadPrimary)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if s.Wire != follower.addr() {
		t.Fatalf("promoted shard wire = %s, want follower %s", s.Wire, follower.addr())
	}
	if s.Name() != deadPrimary {
		t.Fatalf("promoted shard ring name = %s, want stable %s", s.Name(), deadPrimary)
	}
	if s.HasReplica() {
		t.Fatalf("promoted shard still lists a follower: %+v", s)
	}
	if got := r.Ring().Signature(); got != ringSigBefore {
		t.Fatalf("ring signature changed across promotion: %s -> %s", ringSigBefore, got)
	}
	if got := r.Signature(); got == sigBefore {
		t.Fatalf("composed signature did not change across promotion: %s", got)
	}
	if moved != n {
		t.Fatalf("promotion re-enqueued %d of %d harvested messages", moved, n)
	}
	if err := r.Drain(); err != nil {
		t.Fatalf("drain after promotion: %v", err)
	}
	if got := follower.unique(); got != n {
		t.Fatalf("follower holds %d of %d branches after promotion", got, n)
	}
	st := r.Stats()
	if st.Promotions != 1 || st.RerouteDropped != 0 || st.Unroutable != 0 {
		t.Fatalf("promotion ledger: %+v", st)
	}

	// New ingest for the slice flows to the promoted follower directly.
	extra := branch.MustParse("probe=extra,site=sX,vo=tg")
	if owner := r.Ring().Owner(extra); owner == deadPrimary {
		handleAll(t, r, []branch.ID{extra})
		if err := r.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if got := follower.unique(); got != n+1 {
			t.Fatalf("post-promotion ingest did not reach the follower")
		}
	}
}

// TestAttachKeepsSignature: attaching a follower moves no read, so the
// composed signature (and every validator minted under it) stays; promoting
// that follower changes it.
func TestAttachKeepsSignature(t *testing.T) {
	primary := newSinkServer(t)
	follower := newSinkServer(t)
	r, err := NewRouter([]Shard{{Wire: primary.addr()}}, RouterOptions{Batch: testBatch()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sig := r.Signature()
	if err := r.AttachReplica(primary.addr(), follower.addr(), ""); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if got := r.Signature(); got != sig {
		t.Fatalf("signature changed across a follower attach: %s -> %s", sig, got)
	}
	if _, _, err := r.Promote(primary.addr()); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got := r.Signature(); got == sig {
		t.Fatalf("signature unchanged across a promotion: %s", got)
	}
}

// TestReplicationTee proves steady-state replication: with both primary
// and follower live, every accepted message reaches both.
func TestReplicationTee(t *testing.T) {
	primary := newSinkServer(t)
	follower := newSinkServer(t)
	r, err := NewRouter([]Shard{
		{Wire: primary.addr(), ReplicaWire: follower.addr()},
	}, RouterOptions{Batch: testBatch()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 25
	ids := branchesOwnedBy(t, r.Ring(), primary.addr(), n)
	handleAll(t, r, ids)
	if err := r.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := primary.unique(); got != n {
		t.Fatalf("primary received %d of %d", got, n)
	}
	if got := follower.unique(); got != n {
		t.Fatalf("follower received %d of %d", got, n)
	}
	st := r.Stats()
	if st.ReplicaShed != 0 {
		t.Fatalf("replica shed %d in steady state", st.ReplicaShed)
	}
	if len(st.Shards) != 1 || !st.Shards[0].HasReplica {
		t.Fatalf("stats do not expose the follower: %+v", st.Shards)
	}
	if st.Shards[0].Replica.Acked != n {
		t.Fatalf("replica acked %d of %d", st.Shards[0].Replica.Acked, n)
	}
}

// TestParseShardReplicaSyntax covers the follower spec grammar.
func TestParseShardReplicaSyntax(t *testing.T) {
	s, err := ParseShard("w:1/h:1=fw:2/fh:2")
	if err != nil {
		t.Fatal(err)
	}
	want := Shard{Wire: "w:1", HTTP: "h:1", ReplicaWire: "fw:2", ReplicaHTTP: "fh:2"}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if _, err := ParseShard("w:1/h:1="); err == nil {
		t.Fatal("empty follower accepted")
	}

}

// TestRerouteBackoffRetryExhaustion pins the re-route retry loop to the
// injected clock and the jittered exponential ladder. Shard B dies with
// one queued message; its only successor C is dead too, with a backlog
// already full, so every Enqueue retry refuses until the 10s
// re-route deadline expires on the virtual clock. The old code spun a
// fixed 10ms wall sleep (~1000 iterations against the wall clock); the
// ladder must cross the same deadline in a few dozen fires, with no real
// sleeping at all.
func TestRerouteBackoffRetryExhaustion(t *testing.T) {
	deadB := deadAddr(t)
	deadC := deadAddr(t)
	sim := simtime.NewSim(time.Unix(0, 0))
	start := sim.Now()

	batch := testBatch()
	batch.FlushInterval = -1 // queues only move when the re-route loop kicks them
	batch.MaxPending = 1     // one message fills a shard's backlog
	r, err := NewRouter([]Shard{{Wire: deadB}, {Wire: deadC}}, RouterOptions{Batch: batch, Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Fill C's backlog, then queue the message B will orphan.
	handleAll(t, r, branchesOwnedBy(t, r.Ring(), deadC, 1))
	handleAll(t, r, branchesOwnedBy(t, r.Ring(), deadB, 1))

	done := make(chan struct{})
	var moved, lost int
	var leaveErr error
	go func() {
		defer close(done)
		moved, lost, leaveErr = r.Leave(deadB)
	}()

	// Drive the virtual clock: fire each backoff sleep as it registers.
	var fires atomic.Int64
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if sim.Waiters() > 0 {
				if sim.Step() {
					fires.Add(1)
				}
			} else {
				runtime.Gosched()
			}
		}
	}()

	select {
	case <-done:
	case <-time.After(30 * time.Second): // safety net, never hit on the passing path
		t.Fatal("Leave did not return: the retry loop is not exhausting against the injected clock")
	}
	if leaveErr != nil {
		t.Fatalf("leave: %v", leaveErr)
	}
	if moved != 0 || lost != 1 {
		t.Fatalf("moved=%d lost=%d, want 0 moved and the orphan counted lost", moved, lost)
	}
	st := r.Stats()
	if st.RerouteDropped != 1 {
		t.Fatalf("RerouteDropped = %d, want 1", st.RerouteDropped)
	}
	if st.Rerouted != 0 {
		t.Fatalf("Rerouted = %d, want 0", st.Rerouted)
	}
	// The deadline expired on the virtual clock, not the wall clock.
	if advanced := sim.Now().Sub(start); advanced < rerouteDeadline {
		t.Fatalf("virtual clock advanced only %v, deadline is %v", advanced, rerouteDeadline)
	}
	// The exponential ladder crosses 10s in tens of fires; a fixed 10ms
	// poll would need ~1000.
	if n := fires.Load(); n < 10 || n > 120 {
		t.Fatalf("%d backoff fires to cross the deadline, want the exponential ladder's few dozen", n)
	}
}
