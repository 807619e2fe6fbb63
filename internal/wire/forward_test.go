package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestReadMessageKeepsItsFrame: a message read off the wire writes back as
// the very bytes it was read from, through one slice its parts alias; once
// a part is replaced it is encoded afresh, never sent stale.
func TestReadMessageKeepsItsFrame(t *testing.T) {
	m := &Message{Branch: "probe=p1,site=s,vo=x", Hostname: "login1", Report: []byte("<r><v>1</v></r>")}
	SignMessage(m, []byte("k1"))
	for _, read := range []struct {
		name string
		r    func([]byte) (*Message, error)
	}{
		{"bufio", func(b []byte) (*Message, error) {
			return ReadMessage(bufio.NewReaderSize(bytes.NewReader(b), BatchBuffer))
		}},
		{"plain", func(b []byte) (*Message, error) { return ReadMessage(bytes.NewReader(b)) }},
	} {
		in := frame(t, m)
		got, err := read.r(in)
		if err != nil {
			t.Fatal(err)
		}
		if f := got.received(); !bytes.Equal(f, in) || &got.Report[0] != &f[4+len(m.Branch)+4+len(m.Hostname)+4] {
			t.Fatalf("%s: the message does not alias its frame", read.name)
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, got); err != nil || !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("%s: forwarded %q, received %q (%v)", read.name, out.Bytes(), in, err)
		}
		if !Verify(got, []byte("k1")) {
			t.Fatalf("%s: the signature no longer verifies", read.name)
		}
		SignMessage(got, []byte("k2"))
		got.Report = append(got.Report, "<!-- -->"...)
		want := &Message{Branch: got.Branch, Hostname: got.Hostname, Report: got.Report, Signature: got.Signature}
		if f, w := frame(t, got), frame(t, want); !bytes.Equal(f, w) {
			t.Fatalf("%s: a changed message wrote %q, want %q", read.name, f, w)
		}
	}
}

// pipelineFrames returns n batch frames of 1..n messages, frame i's messages
// on branch "f=i".
func pipelineFrames(t *testing.T, n int) []byte {
	var out bytes.Buffer
	for i := 1; i <= n; i++ {
		msgs := make([]*Message, i)
		for j := range msgs {
			msgs[j] = &Message{Branch: fmt.Sprintf("f=%d", i), Hostname: "h", Report: []byte("<r/>")}
		}
		if err := WriteBatch(&out, msgs); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestServerAcksPipelinedFramesInOrder: a client that writes four frames
// at once gets four ack vectors, in the frames' order, however the server
// coalesces their writes.
func TestServerAcksPipelinedFramesInOrder(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Message, _ string) *Ack {
		return &Ack{OK: false, Message: m.Branch}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(pipelineFrames(t, 4)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 1; i <= 4; i++ {
		acks, err := ReadAckVector(br)
		if err != nil {
			t.Fatalf("ack vector %d: %v", i, err)
		}
		if len(acks) != i {
			t.Fatalf("ack vector %d has %d acks", i, len(acks))
		}
		for _, a := range acks {
			if a.Message != fmt.Sprintf("f=%d", i) {
				t.Fatalf("ack vector %d answers %q", i, a.Message)
			}
		}
	}
}

// TestServerAcksLoneFrameAtOnce: coalescing never holds an ack back. A
// writer that sends one frame and waits is acked, and so is one whose next
// frame has only half arrived.
func TestServerAcksLoneFrameAtOnce(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(*Message, string) *Ack { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frames := pipelineFrames(t, 2)
	first := len(pipelineFrames(t, 1))
	br := bufio.NewReader(conn)
	for _, send := range [][]byte{frames[:first], frames[first : first+(len(frames)-first)/2]} {
		if _, err := conn.Write(send); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	acks, err := ReadAckVector(br)
	if err != nil || len(acks) != 1 || !acks[0].OK {
		t.Fatalf("the first frame was not acked while the second was incomplete: %v %v", acks, err)
	}
	if _, err := conn.Write(frames[first+(len(frames)-first)/2:]); err != nil {
		t.Fatal(err)
	}
	if acks, err := ReadAckVector(br); err != nil || len(acks) != 2 {
		t.Fatalf("second frame: %v %v", acks, err)
	}
}

// ackStub is a batch server whose first answer is a wrong ack vector; it
// answers every later batch correctly and records the messages those
// answers acknowledged.
type ackStub struct {
	ln    net.Listener
	first func(n int) []byte // the first answer, for a batch of n
	mu    sync.Mutex
	acked map[string]int
	bad   bool
}

func newAckStub(t *testing.T, first func(n int) []byte) *ackStub {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &ackStub{ln: ln, first: first, acked: make(map[string]int)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *ackStub) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		msgs, err := ReadBatch(br)
		if err != nil {
			return
		}
		s.mu.Lock()
		answer := s.first(len(msgs))
		if s.bad {
			acks := make([]*Ack, len(msgs))
			for i, m := range msgs {
				acks[i] = &Ack{OK: true}
				s.acked[m.Branch]++
			}
			var out bytes.Buffer
			WriteAckVector(&out, acks)
			answer = out.Bytes()
		}
		s.bad = true
		s.mu.Unlock()
		if _, err := conn.Write(answer); err != nil {
			return
		}
	}
}

// TestBatchClientRefusesWrongAckCount: an ack vector whose count is not its
// batch's length settles nothing. The connection fails, the batch is
// requeued and delivered again, and the client counts every message acked
// exactly once, with the delivery ledger reconciled.
func TestBatchClientRefusesWrongAckCount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer func(n int) []byte
	}{
		{"short", func(int) []byte { return []byte{ackVectorMarker, 0, 0, 0, 1, 0, 0, 0, 0, 0} }},
		{"zero", func(int) []byte { return []byte{ackVectorMarker, 0, 0, 0, 0} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := newAckStub(t, tc.answer)
			c := NewBatchClient(stub.ln.Addr().String(), BatchOptions{MaxBatch: 32, FlushInterval: -1, IOTimeout: 5 * time.Second})
			const total = 96
			for i := 0; i < total; i++ {
				if err := c.Enqueue(&Message{Branch: fmt.Sprintf("r=%d", i), Hostname: "h", Report: []byte("<r/>")}); err != nil && err != ErrClosed {
					t.Logf("enqueue %d: %v", i, err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for c.Drain() != nil {
				if time.Now().After(deadline) {
					t.Fatal("never drained")
				}
			}
			st := c.Stats()
			if st.Acked != total || st.Rejected != 0 || st.Dropped != 0 || st.Requeued == 0 {
				t.Fatalf("stats %+v: want %d acked, none rejected or dropped, some requeued", st, total)
			}
			if queued := len(c.CloseHarvest()); st.Acked+st.Rejected+st.Dropped+uint64(queued) != total {
				t.Fatalf("ledger: %+v with %d queued does not reconcile to %d", st, queued, total)
			}
			// A batch pipelined behind the refused one may be acked by the
			// stub after the client dropped the connection, and so twice;
			// the client counts only the ack it read.
			stub.mu.Lock()
			defer stub.mu.Unlock()
			for i := 0; i < total; i++ {
				if stub.acked[fmt.Sprintf("r=%d", i)] == 0 {
					t.Fatalf("message r=%d was never acked", i)
				}
			}
		})
	}
}
