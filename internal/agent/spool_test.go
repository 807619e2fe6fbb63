package agent

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/simtime"
	"inca/internal/wire"
)

func spoolMsg(i int) *wire.Message {
	return &wire.Message{
		Branch:   fmt.Sprintf("probe=p%d", i),
		Hostname: "h",
		Report:   []byte(fmt.Sprintf("<r>%d</r>", i)),
	}
}

func TestSpoolFIFO(t *testing.T) {
	s, err := NewSpool(SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(spoolMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.Depth(); d != 10 {
		t.Fatalf("depth = %d", d)
	}
	stop := make(chan struct{})
	for i := 0; i < 10; i++ {
		m, ok := s.Peek(stop)
		if !ok {
			t.Fatal("peek failed")
		}
		if want := fmt.Sprintf("probe=p%d", i); m.Branch != want {
			t.Fatalf("order broken: got %s want %s", m.Branch, want)
		}
		s.PopN(1)
	}
	st := s.Stats()
	if st.Spooled != 10 || st.Dropped != 0 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSpoolPeekBlocksUntilPut(t *testing.T) {
	s, err := NewSpool(SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make(chan *wire.Message, 1)
	go func() {
		m, _ := s.Peek(nil)
		got <- m
	}()
	time.Sleep(10 * time.Millisecond)
	s.Put(spoolMsg(7))
	select {
	case m := <-got:
		if m.Branch != "probe=p7" {
			t.Fatalf("got %s", m.Branch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Peek never woke")
	}
}

func TestSpoolPeekStops(t *testing.T) {
	s, err := NewSpool(SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Peek(stop)
		done <- ok
	}()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped Peek returned an entry")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Peek ignored stop")
	}
}

func TestSpoolMemoryBoundShedsOldest(t *testing.T) {
	// Each entry costs ~70 bytes; a ~10-entry bound forces shedding.
	s, err := NewSpool(SpoolOptions{MemLimitBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 50
	for i := 0; i < total; i++ {
		if err := s.Put(spoolMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("memory bound never shed")
	}
	if st.Spooled != total {
		t.Fatalf("spooled = %d", st.Spooled)
	}
	if uint64(st.Depth)+st.Dropped != total {
		t.Fatalf("accounting broken: depth %d + dropped %d != %d", st.Depth, st.Dropped, total)
	}
	// The survivors are the newest, still in order.
	m, _ := s.Peek(nil)
	first := m.Branch
	var firstIdx int
	fmt.Sscanf(first, "probe=p%d", &firstIdx)
	for i := firstIdx; i < total; i++ {
		m, ok := s.Peek(nil)
		if !ok || m.Branch != fmt.Sprintf("probe=p%d", i) {
			t.Fatalf("survivor order broken at %d: %v", i, m)
		}
		s.PopN(1)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d after draining", s.Depth())
	}
}

func TestSpoolDiskOverflowPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSpool(SpoolOptions{MemLimitBytes: 700, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 200
	for i := 0; i < total; i++ {
		if err := s.Put(spoolMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("disk-backed spool dropped %d", st.Dropped)
	}
	if st.Overflowed == 0 {
		t.Fatal("nothing overflowed to disk")
	}
	if st.Depth != total {
		t.Fatalf("depth = %d, want %d", st.Depth, total)
	}
	for i := 0; i < total; i++ {
		m, ok := s.Peek(nil)
		if !ok || m.Branch != fmt.Sprintf("probe=p%d", i) {
			t.Fatalf("order broken at %d: %+v", i, m)
		}
		s.PopN(1)
	}
	// Fully drained: the overflow file is reclaimed.
	fi, err := os.Stat(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("drained spool file still %d bytes", fi.Size())
	}
}

func TestSpoolRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSpool(SpoolOptions{MemLimitBytes: 1, Dir: dir}) // everything to disk
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(spoolMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a crash mid-append: a torn frame at the tail.
	path := filepath.Join(dir, spoolFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 'x'}) // length prefix promising 9 bytes, only 1 present
	f.Close()

	s2, err := NewSpool(SpoolOptions{MemLimitBytes: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d := s2.Depth(); d != 5 {
		t.Fatalf("recovered depth = %d, want 5", d)
	}
	for i := 0; i < 5; i++ {
		m, ok := s2.Peek(nil)
		if !ok || m.Branch != fmt.Sprintf("probe=p%d", i) {
			t.Fatalf("recovered order broken at %d: %+v", i, m)
		}
		s2.PopN(1)
	}
}

// TestSpoolPersistsMemoryAcrossRestart: a clean Close with a spool
// directory must write the in-memory head (older than every disk entry)
// ahead of the disk segment, so a restart replays everything in order —
// not just what happened to overflow.
func TestSpoolPersistsMemoryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	// Bound sized so entries 0–1 stay in memory and 2–4 overflow to disk.
	lim := 2 * memCost(spoolMsg(0))
	s, err := NewSpool(SpoolOptions{MemLimitBytes: lim, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(spoolMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Overflowed == 0 {
		t.Fatalf("bound never overflowed to disk: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewSpool(SpoolOptions{MemLimitBytes: lim, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d := s2.Depth(); d != 5 {
		t.Fatalf("recovered depth = %d, want 5", d)
	}
	for i := 0; i < 5; i++ {
		m, ok := s2.Peek(nil)
		if !ok || m.Branch != fmt.Sprintf("probe=p%d", i) {
			t.Fatalf("recovered order broken at %d: %+v", i, m)
		}
		s2.PopN(1)
	}
}

func TestSpoolPutConcurrent(t *testing.T) {
	s, err := NewSpool(SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Put(spoolMsg(g*per + i))
			}
		}(g)
	}
	drained := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for drained < goroutines*per {
			if _, ok := s.Peek(nil); !ok {
				return
			}
			s.PopN(1)
			drained++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain stalled")
	}
	if drained != goroutines*per {
		t.Fatalf("drained %d", drained)
	}
}

// --- wire sink over the spool ---

// reservedAddr returns a loopback address nothing listens on yet, for a
// controller that comes up later.
func reservedAddr(t *testing.T) string {
	t.Helper()
	tmp, err := wire.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	return tmp.Addr()
}

// recordingServer serves addr, appending every branch it is handed to got.
func recordingServer(t *testing.T, addr string, mu *sync.Mutex, got *[]string) *wire.Server {
	t.Helper()
	srv, err := wire.Serve(addr, func(m *wire.Message, remote string) *wire.Ack {
		mu.Lock()
		*got = append(*got, m.Branch)
		mu.Unlock()
		return &wire.Ack{OK: true}
	})
	if err != nil {
		t.Skipf("could not bind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func submitN(t *testing.T, sink *WireSink, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := sink.Submit(branch.MustParse(fmt.Sprintf("probe=p%d", i)), "h", []byte("<r/>")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireSinkDeliversAfterServerComesUp(t *testing.T) {
	addr := reservedAddr(t)
	sim := simtime.NewSim(time.Unix(0, 0))
	sink := newTestSink(t, addr, DeliveryOptions{Clock: sim})
	const total = 20
	submitN(t, sink, 0, total)
	// The first attempt has failed and the loop is parked in its backoff:
	// nothing moves again until the virtual clock does.
	awaitTimers(t, sim, 1)
	if ds := sink.DeliveryStats(); ds.Spooled != total || ds.Depth != total || ds.Replayed != 0 {
		t.Fatalf("while the server is down: %+v", ds)
	}

	var mu sync.Mutex
	var got []string
	recordingServer(t, addr, &mu, &got)
	settle(t, sink, sim)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("server got %d, want %d", len(got), total)
	}
	for i, b := range got {
		if b != fmt.Sprintf("probe=p%d", i) {
			t.Fatalf("order broken at %d: %s", i, b)
		}
	}
	ds := sink.DeliveryStats()
	if ds.Replayed != total || ds.Dropped != 0 || ds.Rejected != 0 || ds.Depth != 0 {
		t.Fatalf("delivery stats = %+v", ds)
	}
}

func TestWireSinkCountsRejections(t *testing.T) {
	srv, err := wire.Serve("127.0.0.1:0", func(m *wire.Message, remote string) *wire.Ack {
		return &wire.Ack{OK: false, Message: "not on allowlist"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Nobody steps this clock: a refusal is an answer, and must not send
	// the loop into a backoff that Drain would then wait out.
	sink := newTestSink(t, srv.Addr(), DeliveryOptions{Clock: simtime.NewSim(time.Unix(0, 0))})
	defer sink.Close()
	submitN(t, sink, 0, 1)
	if err := sink.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ds := sink.DeliveryStats()
	if ds.Rejected != 1 || ds.Replayed != 0 || ds.Depth != 0 {
		t.Fatalf("delivery stats = %+v", ds)
	}
}

func TestWireSinkSurvivesControllerRestart(t *testing.T) {
	var mu sync.Mutex
	var got []string
	srv := recordingServer(t, "127.0.0.1:0", &mu, &got)
	addr := srv.Addr()

	sim := simtime.NewSim(time.Unix(0, 0))
	sink := newTestSink(t, addr, DeliveryOptions{Clock: sim})
	const total = 60
	submitN(t, sink, 0, total/2)
	srv.Close() // controller dies mid-run
	submitN(t, sink, total/2, total)
	recordingServer(t, addr, &mu, &got)
	settle(t, sink, sim)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// At-least-once across the restart: every report arrives, and the
	// first occurrence per branch preserves submission order.
	mu.Lock()
	defer mu.Unlock()
	seen := make(map[string]int)
	var firsts []string
	for _, b := range got {
		if seen[b] == 0 {
			firsts = append(firsts, b)
		}
		seen[b]++
	}
	if len(seen) != total {
		t.Fatalf("unique reports = %d, want %d (loss across restart)", len(seen), total)
	}
	for i, b := range firsts {
		if b != fmt.Sprintf("probe=p%d", i) {
			t.Fatalf("order broken at %d: %s", i, b)
		}
	}
	ds := sink.DeliveryStats()
	if ds.Spooled != total || ds.Replayed != total || ds.Dropped != 0 || ds.Depth != 0 {
		t.Fatalf("delivery stats = %+v", ds)
	}
}

// TestWireSinkCustodyAcrossRestart: a chunk the loop has handed to the
// batch client is still the spool's until it is acknowledged, so closing
// the agent while the controller is down leaves every report on disk for
// the next process. (Popping at hand-over lost the chunk in flight.)
func TestWireSinkCustodyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sim := simtime.NewSim(time.Unix(0, 0))
	sink := newTestSink(t, reservedAddr(t), DeliveryOptions{Spool: SpoolOptions{Dir: dir}, Clock: sim})
	const total = 10
	submitN(t, sink, 0, total)
	awaitTimers(t, sim, 1) // a chunk was taken, its delivery failed, the loop is backing off
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if ds := sink.DeliveryStats(); ds.Dropped != 0 {
		t.Fatalf("delivery stats at close = %+v", ds)
	}

	reopened, err := NewSpool(SpoolOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Depth != total || st.Spooled != total {
		t.Fatalf("reopened spool: %+v, want %d reports held and on the ledger", st, total)
	}
	for i, m := range reopened.PeekBatch(total) {
		if want := fmt.Sprintf("probe=p%d", i); m.Branch != want {
			t.Fatalf("reopened order broken at %d: got %s want %s", i, m.Branch, want)
		}
	}
}

// TestWireSinkShedWhileInFlight: the spool overflows while its head is out
// with the batch client. Every report must end up delivered or counted
// dropped, exactly once, by name: shedding the in-flight head and then
// popping "the head" on its ack delivered p0 and counted it dropped, and
// lost p2 with no count at all.
func TestWireSinkShedWhileInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	delivered := make(map[string]int)
	srv, err := wire.Serve("127.0.0.1:0", func(m *wire.Message, remote string) *wire.Ack {
		mu.Lock()
		first := len(delivered) == 0
		delivered[m.Branch]++
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
		return &wire.Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	room := 3 * memCost(&wire.Message{Branch: "probe=p0", Hostname: "h", Report: []byte("<r/>")})
	sink := newTestSink(t, srv.Addr(), DeliveryOptions{Spool: SpoolOptions{MemLimitBytes: room}})
	defer sink.Close()
	submitN(t, sink, 0, 1)
	<-entered // p0 is in the handler, unacknowledged
	const total = 5
	submitN(t, sink, 1, total)

	// What the spool still holds was not shed; everything else was.
	held := make(map[string]bool)
	sink.spool.mu.Lock()
	for _, m := range sink.spool.mem {
		held[m.Branch] = true
	}
	sink.spool.mu.Unlock()
	close(release)
	if err := sink.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	shed := 0
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("probe=p%d", i)
		fates := delivered[name]
		if !held[name] {
			fates++
			shed++
		}
		if fates != 1 {
			t.Errorf("%s: delivered %d times, shed %v; want exactly one fate", name, delivered[name], !held[name])
		}
	}
	if shed == 0 {
		t.Fatal("the spool never overflowed: nothing was tested")
	}
	ds := sink.DeliveryStats()
	if ds.Dropped != uint64(shed) || ds.Replayed != uint64(total-shed) || ds.Depth != 0 {
		t.Fatalf("delivery stats = %+v with %d shed", ds, shed)
	}
	if ds.Spooled != ds.Replayed+ds.Rejected+ds.Dropped+uint64(ds.Depth) {
		t.Fatalf("accounting broken: %+v", ds)
	}
}
