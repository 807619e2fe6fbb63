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
// frame, so both coexist on one connection and old clients keep working.
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
	"inca/internal/simtime"
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

// RetryPolicy bounds how a client retries a failed send. Backoff between
// attempts is exponential with full jitter: attempt n sleeps a uniform
// random duration in [0, min(Cap, Base·2ⁿ)], so a fleet of agents cut off
// by one controller restart does not reconnect in lockstep.
type RetryPolicy struct {
	// Max is the total number of attempts per Send (default 1 = no retry).
	Max int
	// Base is the backoff before the first retry (default 100ms).
	Base time.Duration
	// Cap bounds the backoff growth (default 5s).
	Cap time.Duration
}

func (p *RetryPolicy) fill() {
	if p.Max <= 0 {
		p.Max = 1
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 5 * time.Second
	}
}

// Backoff returns the jittered sleep before retry number n (1-based):
// uniform random in [0, min(Cap, Base·2ⁿ⁻¹)], an unset Base or Cap taking
// its default.
func (p RetryPolicy) Backoff(n int) time.Duration {
	p.fill()
	return simtime.Backoff(p.Base, p.Cap, n)
}

// ClientOptions configures the delivery robustness of a Client.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt (default 10s).
	DialTimeout time.Duration
	// IOTimeout bounds each write-message/read-ack step (default 30s;
	// <0 disables deadlines). A hung server then surfaces as a timeout
	// error instead of wedging the caller forever.
	IOTimeout time.Duration
	// Retry bounds in-Send retries. The zero value means a single
	// attempt; spooling callers (agent.WireSink) keep it small and let
	// the spool's own backoff loop own long-horizon redelivery.
	Retry RetryPolicy
	// Metrics, when set, registers the client's counters and per-attempt
	// send-latency histogram there; Stats() reads the same instruments, so
	// JSON and Prometheus views always agree. Clients sharing a registry
	// merge their series.
	Metrics *metrics.Registry
}

func (o *ClientOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = 30 * time.Second
	}
	o.Retry.fill()
}

// ClientStats counts a client's delivery work.
type ClientStats struct {
	// Dials is every connection attempt, successful or not.
	Dials uint64
	// Reconnects is dials after the first successful connection — each
	// one is a recovered transport failure.
	Reconnects uint64
	// Retries is in-Send attempts beyond each message's first.
	Retries uint64
	// Sent is messages acknowledged by the server (OK or not).
	Sent uint64
}

// Client is a connection from a distributed controller to the centralized
// controller. It reconnects lazily after errors and is safe for concurrent
// use (sends are serialized, as all traffic from one resource flows over
// one connection in the deployed system).
type Client struct {
	addr string
	opt  ClientOptions

	mu        sync.Mutex
	conn      net.Conn
	bw        *bufio.Writer
	br        *bufio.Reader
	connected bool // a dial has succeeded at least once

	dials      *metrics.Counter
	reconnects *metrics.Counter
	retries    *metrics.Counter
	sent       *metrics.Counter
	sendH      *metrics.Histogram
}

// NewClient returns a client that will dial addr on first use, with
// default deadlines and no retry.
func NewClient(addr string) *Client { return NewClientOptions(addr, ClientOptions{}) }

// NewClientOptions returns a client with explicit timeout/retry behavior.
func NewClientOptions(addr string, opt ClientOptions) *Client {
	opt.fill()
	reg := opt.Metrics
	return &Client{
		addr:       addr,
		opt:        opt,
		dials:      reg.Counter("inca_wire_client_dials_total", "Connection attempts, successful or not."),
		reconnects: reg.Counter("inca_wire_client_reconnects_total", "Dials after the first successful connection."),
		retries:    reg.Counter("inca_wire_client_retries_total", "In-Send attempts beyond each message's first."),
		sent:       reg.Counter("inca_wire_client_sent_total", "Messages acknowledged by the server (OK or not)."),
		sendH:      reg.Histogram("inca_wire_send_seconds", "Per-attempt send latency: dial if needed, write, await ack.", nil),
	}
}

// Send submits one message and waits for the server's ack, retrying
// transport failures up to the client's RetryPolicy with jittered
// exponential backoff. Every attempt runs under the configured dial and
// I/O deadlines. A transport error closes the connection so the next
// attempt redials. Note the at-least-once consequence: an error after the
// frame hit the wire (lost ack) retries a message the server may already
// have processed.
func (c *Client) Send(m *Message) (*Ack, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 1; attempt <= c.opt.Retry.Max; attempt++ {
		if attempt > 1 {
			c.retries.Inc()
			time.Sleep(c.opt.Retry.Backoff(attempt - 1))
		}
		start := time.Now()
		ack, err := c.sendOnceLocked(m)
		c.sendH.ObserveSince(start)
		if err == nil {
			c.sent.Inc()
			return ack, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (c *Client) sendOnceLocked(m *Message) (*Ack, error) {
	if c.conn == nil {
		c.dials.Inc()
		if c.connected {
			c.reconnects.Inc()
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
		}
		c.conn = conn
		c.connected = true
		c.bw = bufio.NewWriter(conn)
		c.br = bufio.NewReader(conn)
	}
	fail := func(err error) (*Ack, error) {
		c.conn.Close()
		c.conn = nil
		return nil, err
	}
	if err := c.setDeadlineLocked(); err != nil {
		return fail(err)
	}
	if err := WriteMessage(c.bw, m); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	ack, err := ReadAck(c.br)
	if err != nil {
		return fail(err)
	}
	return ack, nil
}

// setDeadlineLocked arms the per-attempt I/O deadline covering the
// write-and-await-ack round trip.
func (c *Client) setDeadlineLocked() error {
	if c.opt.IOTimeout < 0 {
		return nil
	}
	return c.conn.SetDeadline(time.Now().Add(c.opt.IOTimeout))
}

// Stats returns a snapshot of the client's delivery counters — a view
// over the same instruments the metrics registry exposes.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Dials:      c.dials.Value(),
		Reconnects: c.reconnects.Value(),
		Retries:    c.retries.Value(),
		Sent:       c.sent.Value(),
	}
}

// Close closes the underlying connection if open.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
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
