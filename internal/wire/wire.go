// Package wire implements the TCP protocol between distributed controllers
// and the centralized controller (paper Section 3.1.3: "The distributed
// controller communicates a report to the Inca server along with its branch
// identifier using a TCP connection").
//
// Frames are length-prefixed:
//
//	uint32 branchLen | branch bytes | uint32 reportLen | report bytes
//
// The server answers each frame with an ack frame:
//
//	uint8 status (0 ok, 1 error) | uint32 msgLen | message bytes
//
// A batch frame carries many messages under one flush (see batch.go); the
// sentinel first word 0xFFFFFFFF — never a legal branch length, since
// parts are capped at MaxFrame — distinguishes it from a single-message
// frame, so both are served on one connection. The repo's only client,
// BatchClient, writes batch frames; the server still answers a bare message
// frame with a bare ack, because what arrives on the socket is not ours to
// choose.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"inca/internal/metrics"
)

// MaxFrame bounds a single report message (16 MiB), protecting the server
// from malformed length prefixes.
const MaxFrame = 16 << 20

// Message is one report submission.
type Message struct {
	// Branch is the textual branch identifier.
	Branch string
	// Hostname is the sending resource, checked against the server's
	// allowlist (the paper verifies the connecting host before accepting).
	Hostname string
	// Report is the serialized report XML.
	Report []byte
	// Signature optionally authenticates the message under the host's
	// shared secret (see auth.go); empty when authentication is not
	// configured.
	Signature []byte
}

// WriteMessage writes one framed message.
func WriteMessage(w io.Writer, m *Message) error {
	for _, part := range [][]byte{[]byte(m.Branch), []byte(m.Hostname), m.Report, m.Signature} {
		if len(part) > MaxFrame {
			return fmt.Errorf("wire: frame part of %d bytes exceeds limit", len(part))
		}
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(part)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	m, _, err := readMessage(r, nil)
	return m, err
}

// readMessage reads one framed message. The transient parts (branch and
// hostname, which become strings anyway) pass through scratch — grown as
// needed and returned for reuse across the messages of one connection — so
// only the retained parts (report, signature) get fresh allocations.
func readMessage(r io.Reader, scratch []byte) (*Message, []byte, error) {
	var lenBuf [4]byte
	readPart := func(retain bool) ([]byte, error) {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, err
		}
		n := int(binary.BigEndian.Uint32(lenBuf[:]))
		if n > MaxFrame {
			return nil, fmt.Errorf("wire: frame part of %d bytes exceeds limit", n)
		}
		buf := scratch
		if retain {
			buf = make([]byte, n)
		} else if cap(buf) < n {
			buf = make([]byte, n)
			scratch = buf
		} else {
			buf = buf[:n]
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var m Message
	part, err := readPart(false)
	if err != nil {
		return nil, scratch, err
	}
	m.Branch = string(part)
	if part, err = readPart(false); err != nil {
		return nil, scratch, err
	}
	m.Hostname = string(part)
	if m.Report, err = readPart(true); err != nil {
		return nil, scratch, err
	}
	if part, err = readPart(true); err != nil {
		return nil, scratch, err
	}
	if len(part) > 0 {
		m.Signature = part
	}
	return &m, scratch, nil
}

// Ack is the server's response to one message.
type Ack struct {
	OK      bool
	Message string
}

// WriteAck writes an ack frame.
func WriteAck(w io.Writer, a *Ack) error {
	status := byte(1)
	if a.OK {
		status = 0
	}
	if _, err := w.Write([]byte{status}); err != nil {
		return err
	}
	msg := []byte(a.Message)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(msg)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// ReadAck reads an ack frame.
func ReadAck(r io.Reader) (*Ack, error) {
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: ack message of %d bytes exceeds limit", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return &Ack{OK: status[0] == 0, Message: string(msg)}, nil
}

// Handler processes one received message and returns the ack to send.
type Handler func(m *Message, remoteAddr string) *Ack

// ServerOptions configures connection hygiene on the server side.
type ServerOptions struct {
	// IdleTimeout is the per-connection read deadline: how long the
	// server waits for the next frame (or the rest of a partial frame)
	// before dropping the connection. Zero means wait forever — the
	// pre-robustness behavior, where a dead peer pins its goroutine
	// until process exit.
	IdleTimeout time.Duration
	// Metrics, when set, registers the server's connection and frame
	// counters there; Stats() reads the same instruments.
	Metrics *metrics.Registry
}

// ServerStats counts server-side connection and frame activity; surfaced
// on the querying interface's /debug/vars as the delivery_* group.
type ServerStats struct {
	// ConnsAccepted is every distributed-controller connection accepted.
	ConnsAccepted uint64
	// ConnsIdleClosed is connections dropped by the idle read deadline.
	ConnsIdleClosed uint64
	// Messages is report messages received (batched or not).
	Messages uint64
	// Batches is batch frames received.
	Batches uint64
}

// Server accepts distributed-controller connections.
type Server struct {
	ln      net.Listener
	handler Handler
	opt     ServerOptions
	wg      sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	connsAccepted   *metrics.Counter
	connsIdleClosed *metrics.Counter
	messages        *metrics.Counter
	batches         *metrics.Counter
}

// Serve starts a server on addr (e.g. "127.0.0.1:0"). It returns once the
// listener is ready; handling proceeds in background goroutines.
func Serve(addr string, h Handler) (*Server, error) {
	return ServeOptions(addr, h, ServerOptions{})
}

// ServeOptions starts a server with explicit connection options.
func ServeOptions(addr string, h Handler, opt ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := opt.Metrics
	s := &Server{
		ln: ln, handler: h, opt: opt, conns: make(map[net.Conn]struct{}),
		connsAccepted:   reg.Counter("inca_wire_server_connections_total", "Distributed-controller connections accepted."),
		connsIdleClosed: reg.Counter("inca_wire_server_idle_closed_total", "Connections dropped by the idle read deadline."),
		messages:        reg.Counter("inca_wire_server_messages_total", "Report messages received, batched or not."),
		batches:         reg.Counter("inca_wire_server_batches_total", "Batch frames received."),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connsAccepted.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	remote := conn.RemoteAddr().String()
	var scratch []byte // reused across this connection's frames
	idleClose := func(err error) {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			s.connsIdleClosed.Inc()
		}
	}
	for {
		// Arm the idle deadline per frame: it covers both waiting for the
		// next frame and draining a frame a dead peer abandoned halfway,
		// so a stalled connection cannot pin this goroutine forever.
		if s.opt.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout)); err != nil {
				return
			}
		}
		batch, err := peekBatch(br)
		if err != nil {
			idleClose(err)
			return // EOF, deadline, or protocol error: drop the connection
		}
		if batch {
			var msgs []*Message
			msgs, scratch, err = readBatch(br, scratch)
			if err != nil {
				idleClose(err)
				return
			}
			s.batches.Inc()
			s.messages.Add(uint64(len(msgs)))
			acks := make([]*Ack, len(msgs))
			for i, msg := range msgs {
				ack := s.handler(msg, remote)
				if ack == nil {
					ack = &Ack{OK: true}
				}
				acks[i] = ack
			}
			if err := WriteAckVector(bw, acks); err != nil {
				return
			}
		} else {
			var msg *Message
			msg, scratch, err = readMessage(br, scratch)
			if err != nil {
				idleClose(err)
				return
			}
			s.messages.Inc()
			ack := s.handler(msg, remote)
			if ack == nil {
				ack = &Ack{OK: true}
			}
			if err := WriteAck(bw, ack); err != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Stats returns a snapshot of the server's connection and frame counters —
// a view over the same instruments the metrics registry exposes.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ConnsAccepted:   s.connsAccepted.Value(),
		ConnsIdleClosed: s.connsIdleClosed.Value(),
		Messages:        s.messages.Value(),
		Batches:         s.batches.Value(),
	}
}

// Close stops accepting, closes every live connection, and returns once
// the listener is down and every in-flight handler has finished — after
// Close no handler call is running or will run, so callers may tear down
// whatever the handler writes to.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
