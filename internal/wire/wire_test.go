package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
)

// bareConn is a connection that speaks the bare single-message exchange —
// one message frame out, one ack frame back — with the exported codec: the
// probe for the server branch no client in this repo writes to.
type bareConn struct {
	net.Conn
	br *bufio.Reader
}

func dialBare(t *testing.T, addr string) *bareConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &bareConn{Conn: conn, br: bufio.NewReader(conn)}
}

func (c *bareConn) send(m *Message) (*Ack, error) {
	if err := WriteMessage(c.Conn, m); err != nil {
		return nil, err
	}
	return ReadAck(c.br)
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := &Message{Branch: "r=1,vo=tg", Hostname: "login1", Report: []byte("<r>x</r>")}
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Branch != m.Branch || got.Hostname != m.Hostname || !bytes.Equal(got.Report, m.Report) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEmptyFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := &Message{}
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Branch != "" || len(got.Report) != 0 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	m := &Message{Branch: "a=1", Report: []byte("payload")}
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{0, 3, 5, len(data) - 1} {
		if _, err := ReadMessage(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("accepted %d-byte truncation", n)
		}
	}
}

func TestReadMessageOversizedFrameRejected(t *testing.T) {
	// Length prefix larger than MaxFrame must be rejected without
	// allocating.
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, a := range []*Ack{{OK: true}, {OK: false, Message: "host not allowed"}} {
		var buf bytes.Buffer
		if err := WriteAck(&buf, a); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAck(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != a.OK || got.Message != a.Message {
			t.Fatalf("round trip: %+v", got)
		}
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var received []*Message
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		mu.Lock()
		received = append(received, m)
		mu.Unlock()
		return &Ack{OK: true, Message: "stored"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialBare(t, srv.Addr())
	for i := 0; i < 5; i++ {
		ack, err := c.send(&Message{Branch: fmt.Sprintf("r=%d", i), Hostname: "h", Report: []byte("<r/>")})
		if err != nil {
			t.Fatal(err)
		}
		if !ack.OK || ack.Message != "stored" {
			t.Fatalf("ack = %+v", ack)
		}
	}
	mu.Lock()
	n := len(received)
	mu.Unlock()
	if n != 5 {
		t.Fatalf("server received %d messages, want 5", n)
	}
}

func TestServerRejectionAck(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		return &Ack{OK: false, Message: "host " + m.Hostname + " not in allowlist"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ack, err := dialBare(t, srv.Addr()).send(&Message{Hostname: "evil", Report: []byte("<r/>")})
	if err != nil {
		t.Fatal(err)
	}
	if ack.OK || ack.Message == "" {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestConcurrentClients(t *testing.T) {
	var mu sync.Mutex
	count := 0
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		mu.Lock()
		count++
		mu.Unlock()
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients, per = 8, 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := dialBare(t, srv.Addr())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := c.send(&Message{Branch: fmt.Sprintf("c=%d,m=%d", i, j), Report: []byte("<r/>")}); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if count != clients*per {
		t.Fatalf("received %d, want %d", count, clients*per)
	}
}

func TestWriteMessageOversized(t *testing.T) {
	var buf bytes.Buffer
	m := &Message{Report: make([]byte, MaxFrame+1)}
	if err := WriteMessage(&buf, m); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNilAckFromHandlerDefaultsToOK(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ack, err := dialBare(t, srv.Addr()).send(&Message{Report: []byte("<r/>")})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK {
		t.Fatal("nil handler ack not treated as OK")
	}
}
