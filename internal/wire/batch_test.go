package wire

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBatchFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Branch: "r=1,vo=tg", Hostname: "h1", Report: []byte("<r>1</r>")},
		{Branch: "r=2,vo=tg", Hostname: "h2", Report: []byte("<r>2</r>"), Signature: []byte{9}},
		{},
	}
	if err := WriteBatch(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("count = %d, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i].Branch != msgs[i].Branch || got[i].Hostname != msgs[i].Hostname ||
			!bytes.Equal(got[i].Report, msgs[i].Report) || !bytes.Equal(got[i].Signature, msgs[i].Signature) {
			t.Fatalf("message %d: %+v", i, got[i])
		}
	}
}

func TestBatchFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := WriteBatch(&buf, make([]*Message, MaxBatch+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestAckVectorRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	acks := []*Ack{{OK: true}, {OK: false, Message: "nope"}, {OK: true, Message: "stored"}}
	if err := WriteAckVector(&buf, acks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAckVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acks) {
		t.Fatalf("count = %d", len(got))
	}
	for i := range acks {
		if got[i].OK != acks[i].OK || got[i].Message != acks[i].Message {
			t.Fatalf("ack %d: %+v", i, got[i])
		}
	}
}

func TestAckVectorRejectsSingleAck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAck(&buf, &Ack{OK: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAckVector(&buf); err == nil {
		t.Fatal("single ack parsed as vector")
	}
}

func TestServerHandlesBatchFrames(t *testing.T) {
	var got atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		got.Add(1)
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 8, Window: 3})
	const total = 100
	for i := 0; i < total; i++ {
		if err := c.Enqueue(&Message{Branch: fmt.Sprintf("r=%d", i), Hostname: "h", Report: []byte("<r/>")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != total {
		t.Fatalf("server received %d, want %d", got.Load(), total)
	}
	st := c.Stats()
	if st.Acked != total || st.Rejected != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleAndBatchedClientsShareServer(t *testing.T) {
	// Backward compatibility: single-message frames and batch frames are
	// served by the same accept loop.
	var got atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		got.Add(1)
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	old := dialBare(t, srv.Addr())
	bc := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 4, Window: 2})
	for i := 0; i < 10; i++ {
		if _, err := old.send(&Message{Branch: "old=1", Report: []byte("<r/>")}); err != nil {
			t.Fatal(err)
		}
		if err := bc.Enqueue(&Message{Branch: "new=1", Report: []byte("<r/>")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 20 {
		t.Fatalf("server received %d, want 20", got.Load())
	}
}

func TestBatchClientSurfacesRejection(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		if m.Hostname == "evil" {
			return &Ack{OK: false, Message: "host evil not in allowlist"}
		}
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The rejection is reported once, by whichever call sees it first: the
	// second Enqueue fills the batch and flushes, and when the server's
	// nack beats that call's return it is Enqueue, not Close, that reports.
	c := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 2, Window: 2})
	var first error
	for _, err := range []error{
		c.Enqueue(&Message{Hostname: "good", Report: []byte("<r/>")}),
		c.Enqueue(&Message{Hostname: "evil", Report: []byte("<r/>")}),
		c.Close(),
	} {
		if first == nil {
			first = err
		}
	}
	if first == nil {
		t.Fatal("rejection not surfaced")
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

// The calls that cannot report a failure must not consume one: a rejection
// collected while only EnqueueCustody and the FlushInterval timer are
// running stays for the next Drain. (The timer used to call Flush and drop
// its result, so the second timer flush below swallowed the rejection.)
func TestBatchClientTimerKeepsRejectionForDrain(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		return &Ack{OK: m.Hostname != "evil", Message: "host evil not in allowlist"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 100, Window: 2, FlushInterval: 5 * time.Millisecond})
	defer c.Close()
	await := func(what string, done func(BatchStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done(c.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, c.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := c.EnqueueCustody(&Message{Hostname: "evil", Report: []byte("<r/>")}); err != nil {
		t.Fatal(err)
	}
	await("the rejection", func(st BatchStats) bool { return st.Rejected == 1 })
	if err := c.EnqueueCustody(&Message{Hostname: "good", Report: []byte("<r/>")}); err != nil {
		t.Fatal(err)
	}
	await("the second timer flush", func(st BatchStats) bool { return st.Acked == 1 })
	if err := c.Drain(); err == nil {
		t.Fatal("the timer flush swallowed the rejection")
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("rejection reported twice: %v", err)
	}
}

func TestBatchClientFlushInterval(t *testing.T) {
	var got atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		got.Add(1)
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A partial batch must flush on the interval timer without an explicit
	// Flush or a full batch.
	c := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 1000, Window: 2, FlushInterval: 10 * time.Millisecond})
	defer c.Close()
	if err := c.Enqueue(&Message{Branch: "r=1", Report: []byte("<r/>")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatal("interval flush never happened")
	}
}

func TestBatchClientTransportError(t *testing.T) {
	c := NewBatchClient("127.0.0.1:1", BatchOptions{MaxBatch: 1, Window: 1}) // nothing listens
	err := c.Enqueue(&Message{Report: []byte("<r/>")})                       // full batch → immediate flush
	if err == nil {
		err = c.Close()
	}
	if err == nil {
		t.Fatal("dead server produced no error")
	}
}

func TestBatchClientReconnectsAfterServerRestart(t *testing.T) {
	handler := func(m *Message, remote string) *Ack { return &Ack{OK: true} }
	srv, err := Serve("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := NewBatchClient(addr, BatchOptions{MaxBatch: 1, Window: 1})
	defer c.Close()
	if err := c.Enqueue(&Message{Report: []byte("<r/>")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	failed := false
	for i := 0; i < 50; i++ {
		c.Enqueue(&Message{Report: []byte("<r/>")})
		if err := c.Drain(); err != nil {
			failed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !failed {
		t.Fatal("sends kept succeeding against a closed server")
	}
	srv2, err := Serve(addr, handler)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	var lastErr error
	for i := 0; i < 50; i++ {
		c.Enqueue(&Message{Report: []byte("<r/>")})
		if lastErr = c.Drain(); lastErr == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("client never reconnected: %v", lastErr)
}

func TestBatchClientConcurrentEnqueue(t *testing.T) {
	var got atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		got.Add(1)
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 16, Window: 4})
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.Enqueue(&Message{Branch: fmt.Sprintf("g=%d,i=%d", g, i), Report: []byte("<r/>")}); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != goroutines*per {
		t.Fatalf("server received %d, want %d", got.Load(), goroutines*per)
	}
}

// --- benchmarks ---

func benchMessage(reportBytes int) *Message {
	return &Message{
		Branch:   "probe=gcc,site=sdsc,vo=tg",
		Hostname: "tg-login1.sdsc.teragrid.org",
		Report:   bytes.Repeat([]byte("x"), reportBytes),
	}
}

// BenchmarkWireRoundTrip: one message written and read back through an
// in-memory buffer, its parts aliasing one frame allocation.
func BenchmarkWireRoundTrip(b *testing.B) {
	m := benchMessage(9257)
	var buf bytes.Buffer
	b.SetBytes(int64(len(m.Report)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Report) != len(m.Report) {
			b.Fatal("payload lost")
		}
	}
}

// BenchmarkWireBatchRoundTrip measures the batched framing: 32 messages
// per frame, one ack vector.
func BenchmarkWireBatchRoundTrip(b *testing.B) {
	msgs := make([]*Message, 32)
	for i := range msgs {
		msgs[i] = benchMessage(9257)
	}
	var buf bytes.Buffer
	b.SetBytes(int64(len(msgs) * 9257))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteBatch(&buf, msgs); err != nil {
			b.Fatal(err)
		}
		got, err := ReadBatch(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(msgs) {
			b.Fatal("batch lost")
		}
	}
}
func TestCloseHarvestReturnsUndelivered(t *testing.T) {
	// Nothing flushes (large batch, no timer): every message is still
	// pending, and the harvest must return all of them in order without
	// ever dialing.
	c := NewBatchClient("127.0.0.1:1", BatchOptions{MaxBatch: 64, FlushInterval: -1})
	const total = 17
	for i := 0; i < total; i++ {
		c.Enqueue(&Message{Branch: fmt.Sprintf("r=%d", i), Hostname: "h", Report: []byte("<r/>")})
	}
	got := c.CloseHarvest()
	if len(got) != total {
		t.Fatalf("harvested %d, want %d", len(got), total)
	}
	for i, m := range got {
		if m.Branch != fmt.Sprintf("r=%d", i) {
			t.Fatalf("message %d out of order: %s", i, m.Branch)
		}
	}
	if st := c.Stats(); st.Dropped != 0 {
		t.Fatalf("harvested messages counted as dropped: %+v", st)
	}
	if c.CloseHarvest() != nil {
		t.Fatal("second harvest returned messages")
	}
	if err := c.Enqueue(&Message{Branch: "r=late"}); err == nil {
		t.Fatal("enqueue after close accepted")
	}
}

func TestCloseHarvestAfterPartialDelivery(t *testing.T) {
	// The server acknowledges the first batch then hangs: the harvest
	// must return the written-but-unacknowledged batches (the
	// kill-mid-stream case) so nothing is lost or double-counted.
	var seen atomic.Int64
	block := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		if seen.Add(1) > 5 {
			<-block
		}
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	// Window 4 holds all 4 batches without blocking a flush.
	c := NewBatchClient(srv.Addr(), BatchOptions{MaxBatch: 5, Window: 4, FlushInterval: -1, IOTimeout: -1})
	const total = 20
	for i := 0; i < total; i++ {
		c.Enqueue(&Message{Branch: fmt.Sprintf("r=%d", i), Hostname: "h", Report: []byte("<r/>")})
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Acked < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	got := c.CloseHarvest()
	st := c.Stats()
	if int(st.Acked)+len(got) != total {
		t.Fatalf("acked %d + harvested %d != %d", st.Acked, len(got), total)
	}
	if len(got) == 0 {
		t.Fatal("nothing harvested while the server hung")
	}
	if st.Dropped != 0 {
		t.Fatalf("harvest counted as loss: %+v", st)
	}
}

// mustDeadAddr returns an address nothing listens on: bind, read the
// port, close. Dials fail fast with connection refused.
func mustDeadAddr(t *testing.T) string {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack { return &Ack{OK: true} })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()
	return addr
}

func TestEnqueueCustodyRefusesAtBacklog(t *testing.T) {
	c := NewBatchClient(mustDeadAddr(t), BatchOptions{
		MaxPending: 3, MaxBatch: 4096, FlushInterval: -1,
		DialTimeout: 200 * time.Millisecond, IOTimeout: time.Second,
	})
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.EnqueueCustody(&Message{Branch: fmt.Sprintf("r=%d,vo=tg", i)}); err != nil {
			t.Fatalf("enqueue %d under the limit: %v", i, err)
		}
	}
	if err := c.EnqueueCustody(&Message{Branch: "r=over,vo=tg"}); err != ErrBacklogFull {
		t.Fatalf("over the limit: err = %v, want ErrBacklogFull", err)
	}
	// The contract: refusal, never shedding. Every accepted message is
	// still queued.
	if st := c.Stats(); st.Dropped != 0 {
		t.Fatalf("EnqueueCustody shed %d accepted messages", st.Dropped)
	}
	if got := c.CloseHarvest(); len(got) != 3 {
		t.Fatalf("harvested %d messages, want the 3 accepted", len(got))
	}
}

func TestEnqueueCustodyAfterClose(t *testing.T) {
	c := NewBatchClient(mustDeadAddr(t), BatchOptions{DialTimeout: 200 * time.Millisecond})
	c.Close()
	if err := c.EnqueueCustody(&Message{Branch: "r=1,vo=tg"}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
