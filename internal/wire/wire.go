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
	"slices"
	"sync"
	"time"
	"unsafe"

	"inca/internal/metrics"
)

// MaxFrame bounds a single report message (16 MiB), protecting the server
// from malformed length prefixes.
const MaxFrame = 16 << 20

// BatchBuffer sizes the buffers an ingest hop reads and writes through: a
// batch of the benchmark of record (32 reports of about 900 bytes) fits in
// it whole, so a batch crosses the socket in one read or one write, where
// a 4 KiB buffer takes eight (a syscall costs about 7.5 µs on a 2-CPU
// host, DESIGN.md §5c).
const BatchBuffer = 64 << 10

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

	// frame is the message as it was read off the wire, nil for a message
	// built in memory. The four parts above alias it, and while they still
	// do WriteMessage sends it verbatim: a forwarded message is never
	// re-encoded. Only Report and Signature reach it for writing, each
	// capped at its own part, so the strings aliasing it stay immutable.
	frame []byte
}

// parts returns m's four frame parts in wire order.
func (m *Message) parts() [4][]byte {
	return [4][]byte{
		unsafe.Slice(unsafe.StringData(m.Branch), len(m.Branch)),
		unsafe.Slice(unsafe.StringData(m.Hostname), len(m.Hostname)),
		m.Report,
		m.Signature,
	}
}

// received returns the frame m was read from when its parts still alias
// it — a caller that replaced a part (a re-signed message, say) gets nil,
// and the message is encoded afresh.
func (m *Message) received() []byte {
	f := m.frame
	if f == nil {
		return nil
	}
	off := 0
	for _, part := range m.parts() {
		if len(f)-off < 4 || int(binary.BigEndian.Uint32(f[off:])) != len(part) || len(f)-off-4 < len(part) {
			return nil
		}
		off += 4
		if len(part) > 0 && &part[0] != &f[off] {
			return nil
		}
		off += len(part)
	}
	if off != len(f) {
		return nil
	}
	return f
}

// fromFrame points m's parts into frame, a whole message frame that
// readFrame has checked.
func (m *Message) fromFrame(frame []byte) {
	var part [4][]byte
	off := 0
	for i := range part {
		n := int(binary.BigEndian.Uint32(frame[off:]))
		off += 4
		part[i] = frame[off : off+n : off+n]
		off += n
	}
	*m = Message{
		Branch:   unsafe.String(unsafe.SliceData(part[0]), len(part[0])),
		Hostname: unsafe.String(unsafe.SliceData(part[1]), len(part[1])),
		Report:   part[2],
		frame:    frame,
	}
	if len(part[3]) > 0 {
		m.Signature = part[3]
	}
}

// WriteMessage writes one framed message in one Write: the frame it was
// read from, when it was, else each part behind its length.
func WriteMessage(w io.Writer, m *Message) error {
	if f := m.received(); f != nil {
		_, err := w.Write(f)
		return err
	}
	return writeEncoded(w, func(dst []byte) ([]byte, error) { return appendMessage(dst, m) })
}

// encodeBufs holds the buffers WriteMessage and WriteBatch encode built
// messages into, so a writer allocates nothing per frame once warm.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeEncoded writes what encode appends to a pooled buffer, in one Write.
func writeEncoded(w io.Writer, encode func([]byte) ([]byte, error)) error {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	var err error
	if *buf, err = encode((*buf)[:0]); err != nil {
		return err
	}
	_, err = w.Write(*buf)
	return err
}

// appendMessage appends WriteMessage's bytes to dst.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	if f := m.received(); f != nil {
		return append(dst, f...), nil
	}
	parts := m.parts()
	for _, part := range parts {
		if len(part) > MaxFrame {
			return dst, fmt.Errorf("wire: frame part of %d bytes exceeds limit", len(part))
		}
	}
	for _, part := range parts {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(part)))
		dst = append(dst, part...)
	}
	return dst, nil
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	frame, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	m := new(Message)
	m.fromFrame(frame)
	return m, nil
}

// partPrealloc is the most a reader allocates for a part before its bytes
// arrive. A length prefix is untrusted: past this, the buffer grows by
// doubling as the part is read, so a frame that claims MaxFrame and then
// ends costs what it carried, not what it claimed.
const partPrealloc = 64 << 10

// appendFull appends n bytes read from r to buf, growing it as bytes
// arrive past partPrealloc, with io.ReadFull's errors.
func appendFull(r io.Reader, buf []byte, n int) ([]byte, error) {
	want := len(buf) + n
	start := len(buf)
	for len(buf) < want {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(want-len(buf), max(partPrealloc, len(buf))))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(want, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > start {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// readFrame reads one message frame — four length-prefixed parts — into
// one allocation. From a bufio.Reader that can hold the whole frame it is
// one allocation of exactly the frame's size and one copy; otherwise the
// frame grows part by part as its bytes arrive.
func readFrame(r io.Reader) ([]byte, error) {
	if br, ok := r.(*bufio.Reader); ok {
		if n := peekFrame(br); n > 0 {
			frame := make([]byte, n)
			_, err := io.ReadFull(br, frame) // buffered already: cannot fail
			return frame, err
		}
	}
	var frame []byte
	for range 4 {
		var err error
		at := len(frame)
		if frame, err = appendFull(r, frame, 4); err != nil {
			return nil, err
		}
		n := int(binary.BigEndian.Uint32(frame[at:]))
		if n > MaxFrame {
			return nil, fmt.Errorf("wire: frame part of %d bytes exceeds limit", n)
		}
		// Room for the part, as far as partPrealloc trusts its length, and
		// for the next part's length prefix.
		frame = slices.Grow(frame, min(n, partPrealloc)+4)
		if frame, err = appendFull(r, frame, n); err != nil {
			return nil, err
		}
	}
	return frame, nil
}

// peekFrame waits until br holds the whole message frame at its head and
// returns the frame's size, or 0 when the frame is larger than br's buffer
// or the bytes stop first — cases readFrame's part-by-part path reads and
// reports.
func peekFrame(br *bufio.Reader) int {
	n := 0
	for range 4 {
		head, err := br.Peek(n + 4)
		if err != nil {
			return 0
		}
		n += 4 + int(binary.BigEndian.Uint32(head[n:]))
		if n > br.Size() {
			return 0
		}
	}
	if _, err := br.Peek(n); err != nil {
		return 0
	}
	return n
}

// Ack is the server's response to one message.
type Ack struct {
	OK      bool
	Message string
}

// AckOK acknowledges an accepted message. It is shared, so a handler
// answers without allocating, and nothing may modify it; the server also
// sends it for a handler that returns nil.
var AckOK = &Ack{OK: true}

// WriteAck writes an ack frame.
func WriteAck(w io.Writer, a *Ack) error {
	_, err := w.Write(appendAck(nil, a))
	return err
}

// appendAck appends a's ack frame to dst.
func appendAck(dst []byte, a *Ack) []byte {
	status := byte(1)
	if a.OK {
		status = 0
	}
	dst = append(dst, status)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Message)))
	return append(dst, a.Message...)
}

// ReadAck reads an ack frame.
func ReadAck(r io.Reader) (*Ack, error) {
	ok, msg, err := readAck(r, make([]byte, 5))
	if err != nil {
		return nil, err
	}
	return &Ack{OK: ok, Message: msg}, nil
}

// readAck reads one ack frame through the 5-byte scratch hdr; an OK ack
// with no message allocates nothing.
func readAck(r io.Reader, hdr []byte) (ok bool, msg string, err error) {
	if _, err := io.ReadFull(r, hdr[:5]); err != nil {
		return false, "", err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return false, "", fmt.Errorf("wire: ack message of %d bytes exceeds limit", n)
	}
	if n > 0 {
		b, err := appendFull(r, nil, int(n))
		if err != nil {
			return false, "", err
		}
		msg = string(b)
	}
	return hdr[0] == 0, msg, nil
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
	// counters there.
	Metrics *metrics.Registry
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
	acks := &ackWriter{conn: conn}
	br := bufio.NewReaderSize(acks, BatchBuffer)
	remote := conn.RemoteAddr().String()
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
			msgs, err := readBatch(br)
			if err != nil {
				idleClose(err)
				return
			}
			s.batches.Inc()
			s.messages.Add(uint64(len(msgs)))
			acks.buf = appendAckVectorHeader(acks.buf, len(msgs))
			for _, msg := range msgs {
				acks.buf = appendAck(acks.buf, s.handle(msg, remote))
			}
		} else {
			msg, err := ReadMessage(br)
			if err != nil {
				idleClose(err)
				return
			}
			s.messages.Inc()
			acks.buf = appendAck(acks.buf, s.handle(msg, remote))
		}
	}
}

func (s *Server) handle(m *Message, remote string) *Ack {
	if ack := s.handler(m, remote); ack != nil {
		return ack
	}
	return AckOK
}

// ackWriter is the connection as the server's frame reader sees it: acks
// accumulate in buf, and go out in one write just before the reader waits
// on the socket. A client that pipelines frames gets their acks coalesced
// into one write, and no ack ever waits for a frame that has not arrived.
type ackWriter struct {
	conn net.Conn
	buf  []byte
}

func (a *ackWriter) Read(p []byte) (int, error) {
	if len(a.buf) > 0 {
		if _, err := a.conn.Write(a.buf); err != nil {
			return 0, err
		}
		a.buf = a.buf[:0]
	}
	return a.conn.Read(p)
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
