package wire

// Fault-injection harness for the reliable-delivery acceptance criteria:
// a TCP proxy that can reset connections mid-stream, move to a restarted
// backend, and black-hole acks, sitting between the batch client and a
// real Server. Every test here asserts the delivery ledger balances —
// acked + rejected + dropped + still-queued = submitted — because the bug
// class this PR fixes is precisely messages leaving that ledger silently.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inca/internal/metrics"
)

// chaosProxy forwards TCP between a fixed front address and a (swappable)
// target, injecting faults on demand.
type chaosProxy struct {
	ln net.Listener

	mu     sync.Mutex
	target string
	conns  map[net.Conn]struct{}

	dropAcks atomic.Bool // forward client→server, black-hole server→client
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close(); p.ResetConns() })
	return p
}

func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

// SetTarget points the proxy at a new backend (a restarted controller on
// a fresh port, from the client's point of view the same address).
func (p *chaosProxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// ResetConns hard-closes every live connection pair — the mid-frame
// connection reset.
func (p *chaosProxy) ResetConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *chaosProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *chaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *chaosProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(client)
	}
}

func (p *chaosProxy) serve(client net.Conn) {
	p.track(client)
	defer p.untrack(client)
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	server, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	p.track(server)
	defer p.untrack(server)
	done := make(chan struct{}, 2)
	go func() { // client → server
		defer func() { done <- struct{}{} }()
		io.Copy(server, client)
		server.(*net.TCPConn).CloseWrite()
	}()
	go func() { // server → client, with optional ack black hole
		defer func() { done <- struct{}{} }()
		if p.dropAcks.Load() {
			io.Copy(io.Discard, server)
			return
		}
		io.Copy(client, server)
		client.(*net.TCPConn).CloseWrite()
	}()
	<-done
	<-done
}

func countingServer(t *testing.T) (*Server, *sync.Mutex, *[]string) {
	t.Helper()
	var mu sync.Mutex
	var got []string
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		mu.Lock()
		got = append(got, m.Branch)
		mu.Unlock()
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &mu, &got
}

// uniqueInOrder returns the first occurrence of each branch, in arrival
// order — the at-least-once view of the stream.
func uniqueInOrder(got []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, b := range got {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// TestChaosBatchClientNoLossAcrossResets is the flushLocked/Drain loss
// regression test: connections are reset mid-run, and every enqueued
// message must still be delivered (requeued, not discarded) with the
// ledger balanced.
func TestChaosBatchClientNoLossAcrossResets(t *testing.T) {
	srv, mu, got := countingServer(t)
	proxy := newChaosProxy(t, srv.Addr())

	c := NewBatchClient(proxy.Addr(), BatchOptions{
		MaxBatch: 4, Window: 2, FlushInterval: time.Millisecond,
		MaxPending: -1, IOTimeout: 2 * time.Second,
	})
	const total = 200
	for i := 0; i < total; i++ {
		c.Enqueue(&Message{Branch: fmt.Sprintf("b=%d", i), Hostname: "h", Report: []byte("<r/>")})
		if i%25 == 24 {
			proxy.ResetConns() // reset mid-stream, frames in flight
		}
	}
	// Redeliver until the ledger shows every message acknowledged.
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := c.Drain()
		st := c.Stats()
		if err == nil && st.Acked+st.Rejected+st.Dropped >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: stats=%+v err=%v", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := c.Stats()
	if st.Dropped != 0 {
		t.Fatalf("unbounded client dropped %d", st.Dropped)
	}
	if st.Requeued == 0 {
		t.Fatal("resets happened but nothing was requeued — fault injection missed")
	}
	if err := c.Close(); err != nil {
		t.Logf("close: %v (stale async error from a reset is acceptable)", err)
	}

	mu.Lock()
	defer mu.Unlock()
	unique := uniqueInOrder(*got)
	if len(unique) != total {
		t.Fatalf("server saw %d unique reports, want %d (silent loss)", len(unique), total)
	}
	for i, b := range unique {
		if b != fmt.Sprintf("b=%d", i) {
			t.Fatalf("per-branch order broken at %d: %s", i, b)
		}
	}
}

// TestChaosBatchClientStalledAcks covers the hung-ack path: frames reach
// the server but ack vectors vanish. The armed ack deadline must fail the
// connection and requeue, and once acks flow again nothing is lost.
func TestChaosBatchClientStalledAcks(t *testing.T) {
	srv, mu, got := countingServer(t)
	proxy := newChaosProxy(t, srv.Addr())
	proxy.dropAcks.Store(true)

	c := NewBatchClient(proxy.Addr(), BatchOptions{
		MaxBatch: 4, Window: 2, FlushInterval: time.Millisecond,
		MaxPending: -1, IOTimeout: 150 * time.Millisecond,
	})
	const total = 8
	for i := 0; i < total; i++ {
		c.Enqueue(&Message{Branch: fmt.Sprintf("b=%d", i), Hostname: "h", Report: []byte("<r/>")})
	}
	err := c.Drain() // acks black-holed: must deadline out, not wedge
	if err == nil {
		t.Fatal("drain with black-holed acks reported success")
	}
	proxy.dropAcks.Store(false)
	proxy.ResetConns() // kill the ackless pair; next flush redials clean

	deadline := time.Now().Add(15 * time.Second)
	for {
		err := c.Drain()
		st := c.Stats()
		if err == nil && st.Acked >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: stats=%+v err=%v", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	if unique := uniqueInOrder(*got); len(unique) != total {
		t.Fatalf("server saw %d unique reports, want %d", len(unique), total)
	}
}

// TestChaosBatchClientControllerRestart kills the controller entirely and
// brings a fresh one up behind the same proxy address — the acceptance
// scenario: zero report loss across a controller restart.
func TestChaosBatchClientControllerRestart(t *testing.T) {
	srv1, mu, got := countingServer(t)
	proxy := newChaosProxy(t, srv1.Addr())

	c := NewBatchClient(proxy.Addr(), BatchOptions{
		MaxBatch: 4, Window: 2, FlushInterval: time.Millisecond,
		MaxPending: -1, IOTimeout: 2 * time.Second, DialTimeout: time.Second,
	})
	const total = 100
	for i := 0; i < total; i++ {
		c.Enqueue(&Message{Branch: fmt.Sprintf("b=%d", i), Hostname: "h", Report: []byte("<r/>")})
		if i == total/2 {
			srv1.Close() // controller dies mid-run
			proxy.ResetConns()
		}
	}
	// Controller comes back (new port; the proxy hides the move, as a
	// redeployed controller behind one service address would).
	var mu2 sync.Mutex
	var got2 []string
	srv2, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		mu2.Lock()
		got2 = append(got2, m.Branch)
		mu2.Unlock()
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	proxy.SetTarget(srv2.Addr())

	deadline := time.Now().Add(15 * time.Second)
	for {
		err := c.Drain()
		st := c.Stats()
		if err == nil && st.Acked+st.Rejected >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: stats=%+v err=%v", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := c.Stats()
	c.Close()
	if st.Dropped != 0 {
		t.Fatalf("dropped %d across restart", st.Dropped)
	}

	mu.Lock()
	mu2.Lock()
	defer mu.Unlock()
	defer mu2.Unlock()
	unique := uniqueInOrder(append(append([]string{}, *got...), got2...))
	if len(unique) != total {
		t.Fatalf("controllers saw %d unique reports, want %d (loss across restart)", len(unique), total)
	}
	for i, b := range unique {
		if b != fmt.Sprintf("b=%d", i) {
			t.Fatalf("per-branch order broken at %d: %s", i, b)
		}
	}
}

// TestChaosServerIdleTimeout proves a dead peer cannot pin a server
// goroutine: a connection that goes quiet mid-frame is dropped and
// counted.
func TestChaosServerIdleTimeout(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := ServeOptions("127.0.0.1:0", func(m *Message, remote string) *Ack {
		return &Ack{OK: true}
	}, ServerOptions{IdleTimeout: 50 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a frame: a 4-byte length prefix promising more than we send.
	conn.Write([]byte{0, 0, 0, 9, 'x'})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("server kept the stalled connection alive")
	}
	idleClosed := reg.Counter("inca_wire_server_idle_closed_total", "")
	deadline := time.Now().Add(2 * time.Second)
	for idleClosed.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := idleClosed.Value(); n != 1 {
		t.Fatalf("inca_wire_server_idle_closed_total = %d, want 1", n)
	}
}
