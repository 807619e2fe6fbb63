package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"inca/internal/metrics"
)

// ErrClosed is returned when a message is offered to a closed client.
var ErrClosed = errors.New("wire: client closed")

// ErrBacklogFull is returned by Enqueue when accepting the message would
// exceed MaxPending. Nothing is dropped: the caller keeps custody and may
// retry, block, or refuse its own ack.
var ErrBacklogFull = errors.New("wire: client backlog full")

// Batch frames amortize the per-report round trip that serializes the
// single-message protocol: many messages travel under one flush, and the
// server answers with one ack vector per batch. Layout:
//
//	uint32 0xFFFFFFFF | uint32 count | count × message frame
//
// and the matching ack vector:
//
//	uint8 2 | uint32 count | count × (uint8 status | uint32 msgLen | msg)
//
// where the leading 2 can never open a single-message ack (those start
// with status 0 or 1).

// batchMagic opens a batch frame. It cannot collide with a legal
// single-message frame because the first word there is a part length,
// capped at MaxFrame.
const batchMagic = 0xFFFFFFFF

// ackVectorMarker opens an ack vector (single-message acks start 0 or 1).
const ackVectorMarker = 2

// MaxBatch bounds the messages in one batch frame.
const MaxBatch = 4096

// WriteBatch writes msgs as one batch frame, in one Write.
func WriteBatch(w io.Writer, msgs []*Message) error {
	return writeEncoded(w, func(dst []byte) ([]byte, error) { return appendBatch(dst, msgs) })
}

// appendBatch appends WriteBatch's bytes to dst.
func appendBatch(dst []byte, msgs []*Message) ([]byte, error) {
	if len(msgs) == 0 {
		return dst, fmt.Errorf("wire: empty batch")
	}
	if len(msgs) > MaxBatch {
		return dst, fmt.Errorf("wire: batch of %d messages exceeds limit %d", len(msgs), MaxBatch)
	}
	dst = binary.BigEndian.AppendUint32(dst, batchMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msgs)))
	for _, m := range msgs {
		var err error
		if dst, err = appendMessage(dst, m); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ReadBatch reads one batch frame, magic word included.
func ReadBatch(r io.Reader) ([]*Message, error) {
	return readBatch(r)
}

// slabMessages is how many Messages a batch reader allocates at once: a
// batch of up to this many costs one allocation for its messages, and a
// count prefix claiming MaxBatch gets Messages only for those that arrive.
const slabMessages = 64

func readBatch(r io.Reader) ([]*Message, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[:4]) != batchMagic {
		return nil, fmt.Errorf("wire: not a batch frame")
	}
	count := int(binary.BigEndian.Uint32(hdr[4:]))
	if count == 0 || count > MaxBatch {
		return nil, fmt.Errorf("wire: batch count %d out of range", count)
	}
	msgs := make([]*Message, count)
	var slab []Message
	for i := range msgs {
		frame, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		if len(slab) == 0 {
			slab = make([]Message, min(count-i, slabMessages))
		}
		msgs[i] = &slab[0]
		msgs[i].fromFrame(frame)
		slab = slab[1:]
	}
	return msgs, nil
}

// peekBatch reports whether the next frame on br is a batch frame, without
// consuming it.
func peekBatch(br *bufio.Reader) (bool, error) {
	b, err := br.Peek(4)
	if err != nil {
		return false, err
	}
	return binary.BigEndian.Uint32(b) == batchMagic, nil
}

// WriteAckVector writes one ack per batched message.
func WriteAckVector(w io.Writer, acks []*Ack) error {
	out := appendAckVectorHeader(nil, len(acks))
	for _, a := range acks {
		out = appendAck(out, a)
	}
	_, err := w.Write(out)
	return err
}

func appendAckVectorHeader(dst []byte, count int) []byte {
	dst = append(dst, ackVectorMarker)
	return binary.BigEndian.AppendUint32(dst, uint32(count))
}

// readAckVectorHeader reads an ack vector's marker and count through the
// 5-byte scratch hdr.
func readAckVectorHeader(r io.Reader, hdr []byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:5]); err != nil {
		return 0, err
	}
	if hdr[0] != ackVectorMarker {
		return 0, fmt.Errorf("wire: not an ack vector (marker %d)", hdr[0])
	}
	count := binary.BigEndian.Uint32(hdr[1:5])
	if count == 0 || count > MaxBatch {
		return 0, fmt.Errorf("wire: ack vector count %d out of range", count)
	}
	return int(count), nil
}

// ReadAckVector reads one ack vector.
func ReadAckVector(r io.Reader) ([]*Ack, error) {
	hdr := make([]byte, 5)
	count, err := readAckVectorHeader(r, hdr)
	if err != nil {
		return nil, err
	}
	acks := make([]*Ack, count)
	slab := make([]Ack, count)
	for i := range acks {
		a := &slab[i]
		if a.OK, a.Message, err = readAck(r, hdr); err != nil {
			return nil, err
		}
		acks[i] = a
	}
	return acks, nil
}

// BatchOptions configures a BatchClient.
type BatchOptions struct {
	// MaxBatch is how many messages accumulate before a flush (default 32).
	MaxBatch int
	// Window is how many unacknowledged batches may be in flight before
	// the next flush blocks (default 4) — the pipelining depth.
	Window int
	// FlushInterval bounds how long a buffered message waits before the
	// partial batch is sent anyway (default 50ms; <0 disables the timer,
	// leaving flushing to full batches and explicit Flush/Drain calls).
	FlushInterval time.Duration
	// MaxPending bounds how many messages may sit unflushed while the
	// server is unreachable (default 4096; <0 removes the bound). At the
	// bound Enqueue refuses with ErrBacklogFull; nothing accepted is shed.
	// A connection-loss requeue may carry the buffer past it, since those
	// messages are already in the client's custody.
	MaxPending int
	// DialTimeout bounds each connection attempt (default 10s).
	DialTimeout time.Duration
	// IOTimeout bounds each batch write and, while batches are awaiting
	// acknowledgement, the wait for the next ack vector (default 30s;
	// <0 disables deadlines). A hung server then fails the connection —
	// requeuing its unacked batches — instead of wedging the flusher.
	IOTimeout time.Duration
	// Metrics, when set, registers the client's delivery counters and
	// batch-flush latency histogram there; Stats() reads the same
	// instruments.
	Metrics *metrics.Registry
}

func (o *BatchOptions) fill() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.MaxBatch > MaxBatch {
		o.MaxBatch = MaxBatch
	}
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.MaxPending == 0 {
		o.MaxPending = MaxBatch
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = 30 * time.Second
	}
}

// BatchClient is the connection from a distributed controller, or a router,
// to the tier that stores its reports: messages accumulate into batch
// frames, and up to Window batches ride the connection before the first
// ack vector is awaited, so the paper's one-report-per-round-trip
// serialization disappears from the ingest path. It is safe for
// concurrent use.
//
// Enqueue is a custody transfer: a nil return means the client holds the
// message under its at-least-once contract; ErrClosed and ErrBacklogFull
// mean custody stays with the caller. The federation router acks on this
// distinction, so an OK ack means custody, never a droppable queue slot.
//
// Because acknowledgements arrive after Enqueue returns, a rejection or
// transport failure surfaces on a later Flush, Drain or Close, which
// report it once: the first failure collected since the last report is
// returned, and cleared, by whichever of them observes it first. Enqueue
// and the FlushInterval timer never consume it.
//
// A batch stays on the in-flight list until its ack vector arrives, and
// when a connection dies every unacknowledged batch is requeued ahead of
// the pending buffer (so per-branch submission order is preserved) for
// the next flush to resend. A batch whose ack vector was lost in the
// failure may be processed twice by the server — the standard
// at-least-once trade. The client loses a message only when Close cannot
// deliver it, and counts it in Stats().Dropped.
type BatchClient struct {
	addr string
	opt  BatchOptions

	mu      sync.Mutex
	conn    net.Conn
	wbuf    []byte // the batch frame being written, reused across batches
	pending []*Message
	timer   *time.Timer
	sem     chan struct{} // holds one token per in-flight batch
	gone    chan struct{} // closed when this connection's ack reader exits

	// inflight holds batches written but not yet acknowledged, oldest
	// first; guarded by inMu, which both flushLocked and the ack reader
	// take (the reader still never takes c.mu).
	inMu     sync.Mutex
	inflight [][]*Message

	errMu  sync.Mutex
	err    error
	closed bool
	dialed bool

	acked    *metrics.Counter
	rejected *metrics.Counter
	requeued *metrics.Counter
	dropped  *metrics.Counter
	redials  *metrics.Counter
	flushH   *metrics.Histogram
}

// NewBatchClient returns a client that dials addr on first flush.
func NewBatchClient(addr string, opt BatchOptions) *BatchClient {
	opt.fill()
	reg := opt.Metrics
	return &BatchClient{
		addr:     addr,
		opt:      opt,
		acked:    reg.Counter("inca_wire_batch_acked_total", "Batched messages the server acknowledged OK."),
		rejected: reg.Counter("inca_wire_batch_rejected_total", "Batched messages the server refused."),
		requeued: reg.Counter("inca_wire_batch_requeued_total", "Messages requeued after their connection died unacknowledged."),
		dropped:  reg.Counter("inca_wire_batch_dropped_total", "Messages abandoned by Close after a failed final drain."),
		redials:  reg.Counter("inca_wire_batch_redials_total", "Reconnections after a connection failure."),
		flushH:   reg.Histogram("inca_wire_batch_flush_seconds", "Batch frame write latency per chunk.", nil),
	}
}

// Options returns the client's options with defaults applied.
func (c *BatchClient) Options() BatchOptions { return c.opt }

// Enqueue buffers one message, writing the batch when it is full. It
// refuses with ErrBacklogFull when MaxPending messages are already
// pending, and with ErrClosed after Close or CloseHarvest; otherwise the
// client has taken custody of m. Earlier batches' failures are left for
// Flush, Drain and Close to report.
func (c *BatchClient) Enqueue(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errMu.Lock()
	closed := c.closed
	c.errMu.Unlock()
	if closed {
		return ErrClosed
	}
	if c.opt.MaxPending > 0 && len(c.pending) >= c.opt.MaxPending {
		return ErrBacklogFull
	}
	c.pending = append(c.pending, m)
	if len(c.pending) >= c.opt.MaxBatch {
		c.writePendingLocked()
		return nil
	}
	c.armTimerLocked()
	return nil
}

// armTimerLocked schedules the FlushInterval flush of a partial batch. The
// timer has no caller to report to, so it writes without consuming the
// collected error.
func (c *BatchClient) armTimerLocked() {
	if c.opt.FlushInterval > 0 && c.timer == nil {
		c.timer = time.AfterFunc(c.opt.FlushInterval, func() {
			c.mu.Lock()
			c.writePendingLocked()
			c.mu.Unlock()
		})
	}
}

// Flush sends the pending partial batch without waiting for its ack, and
// reports the first collected asynchronous failure.
func (c *BatchClient) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// flushLocked writes the pending buffer and reports, once, the first
// collected asynchronous failure — its own or an earlier batch's.
func (c *BatchClient) flushLocked() error {
	c.writePendingLocked()
	return c.takeErr()
}

// writePendingLocked writes the pending buffer as MaxBatch-sized chunks. On
// any failure the unwritten remainder stays in pending and unacknowledged
// in-flight batches are requeued ahead of it — nothing is discarded (the
// pre-fix code dropped the whole buffer on a dial or write error, the
// silent-loss bug this PR exists to kill). Failures are recorded, not
// returned: reporting them is flushLocked's job.
func (c *BatchClient) writePendingLocked() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	for len(c.pending) > 0 {
		if err := c.ensureConnLocked(); err != nil {
			// pending is kept: the next Enqueue/Flush/Drain retries.
			c.recordErr(err)
			return
		}
		// Claim an in-flight slot; blocks when Window batches await acks,
		// which is the backpressure that keeps a slow server from unbounded
		// buffering. The reader releases a slot per ack vector and never
		// takes c.mu, so holding it here cannot deadlock.
		select {
		case c.sem <- struct{}{}:
		case <-c.gone:
			c.resetConnLocked()
			c.recordErr(fmt.Errorf("wire: connection lost"))
			return
		}
		n := min(len(c.pending), c.opt.MaxBatch)
		chunk := make([]*Message, n)
		copy(chunk, c.pending[:n])
		// On the in-flight list before the write: if the write fails
		// partway, resetConnLocked harvests the chunk back into pending.
		c.inMu.Lock()
		c.inflight = append(c.inflight, chunk)
		c.inMu.Unlock()
		if n == len(c.pending) {
			clear(c.pending) // the chunk holds them now; keep the array
			c.pending = c.pending[:0]
		} else {
			c.pending = c.pending[n:]
		}
		// The whole frame goes out in one write.
		start := time.Now()
		err := c.setWriteDeadlineLocked()
		if err == nil {
			c.wbuf, err = appendBatch(c.wbuf[:0], chunk)
		}
		if err == nil {
			_, err = c.conn.Write(c.wbuf)
		}
		c.flushH.ObserveSince(start)
		if err != nil {
			c.resetConnLocked()
			c.recordErr(err)
			return
		}
		c.armAckDeadlineLocked()
	}
}

func (c *BatchClient) setWriteDeadlineLocked() error {
	if c.opt.IOTimeout < 0 {
		return nil
	}
	return c.conn.SetWriteDeadline(time.Now().Add(c.opt.IOTimeout))
}

// armAckDeadlineLocked requires the ack vector for the batch just written
// within IOTimeout. It runs under inMu to serialize against the reader's
// clear (see readAcks): whichever of arm/clear observes the in-flight
// list last wins, so the deadline is armed exactly when batches await
// acknowledgement. SetReadDeadline interrupts a read already blocked, so
// arming from here reaches a reader parked on an idle connection.
func (c *BatchClient) armAckDeadlineLocked() {
	if c.opt.IOTimeout < 0 {
		return
	}
	c.inMu.Lock()
	c.conn.SetReadDeadline(time.Now().Add(c.opt.IOTimeout))
	c.inMu.Unlock()
}

// ensureConnLocked dials if no connection is live. It refuses to dial once
// the client is closed — otherwise a FlushInterval timer callback racing
// Close could redial and leak a connection past Close.
func (c *BatchClient) ensureConnLocked() error {
	c.errMu.Lock()
	closed := c.closed
	redial := c.dialed
	c.errMu.Unlock()
	if closed {
		return fmt.Errorf("wire: client closed")
	}
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.sem = make(chan struct{}, c.opt.Window)
	c.gone = make(chan struct{})
	c.errMu.Lock()
	c.dialed = true
	c.errMu.Unlock()
	if redial {
		c.redials.Inc()
	}
	go c.readAcks(conn, bufio.NewReader(conn), c.sem, c.gone)
	return nil
}

// resetConnLocked abandons the current connection, waits for its ack
// reader to exit, and requeues every batch the reader did not acknowledge
// ahead of the pending buffer, preserving submission order. Waiting for
// the reader is what makes the harvest race-free: after gone closes no ack
// can settle an in-flight batch, so requeue-vs-ack double accounting is
// impossible. The reader never takes c.mu, so holding it here cannot
// deadlock.
func (c *BatchClient) resetConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if c.gone != nil {
		<-c.gone
	}
	c.sem = nil
	c.gone = nil
	c.inMu.Lock()
	unacked := c.inflight
	c.inflight = nil
	c.inMu.Unlock()
	if len(unacked) == 0 {
		return
	}
	total := 0
	for _, batch := range unacked {
		total += len(batch)
	}
	requeue := make([]*Message, 0, total+len(c.pending))
	for _, batch := range unacked {
		requeue = append(requeue, batch...)
	}
	n := uint64(len(requeue))
	c.pending = append(requeue, c.pending...)
	c.requeued.Add(n)
}

// readAcks consumes ack vectors, settling the oldest in-flight batch and
// releasing one window slot per vector. It deliberately never touches
// c.mu (see flushLocked). An ack vector whose count is not the oldest
// batch's length is a protocol error: it would settle messages the server
// neither acked nor refused, so the connection fails instead and the
// batch is requeued.
func (c *BatchClient) readAcks(conn net.Conn, br *bufio.Reader, sem chan struct{}, gone chan struct{}) {
	defer close(gone)
	hdr := make([]byte, 5)
	for {
		count, err := readAckVectorHeader(br, hdr)
		if err == nil {
			c.inMu.Lock()
			if len(c.inflight) == 0 || len(c.inflight[0]) != count {
				err = fmt.Errorf("wire: ack vector of %d for a batch of %d", count, c.oldestLocked())
			}
			c.inMu.Unlock()
		}
		var rejected uint64
		var reason string
		for i := 0; err == nil && i < count; i++ {
			var ok bool
			var msg string
			if ok, msg, err = readAck(br, hdr); err == nil && !ok {
				if rejected == 0 {
					reason = msg
				}
				rejected++
			}
		}
		if err != nil {
			conn.Close()
			c.recordErr(err)
			return
		}
		// The server acks batches in order, so this vector settles the
		// oldest in-flight batch: it is delivered, not requeue material.
		// Once nothing is in flight the ack deadline is disarmed — an idle
		// connection awaits no acks and must not time out. Under inMu to
		// serialize against armAckDeadlineLocked.
		c.inMu.Lock()
		c.inflight[0] = nil
		c.inflight = c.inflight[1:]
		if len(c.inflight) == 0 && c.opt.IOTimeout >= 0 {
			conn.SetReadDeadline(time.Time{})
		}
		c.inMu.Unlock()
		c.acked.Add(uint64(count) - rejected)
		if rejected > 0 {
			c.rejected.Add(rejected)
			c.recordErr(fmt.Errorf("wire: server rejected report: %s", reason))
		}
		<-sem
	}
}

// oldestLocked is the length of the oldest in-flight batch, 0 when none.
func (c *BatchClient) oldestLocked() int {
	if len(c.inflight) == 0 {
		return 0
	}
	return len(c.inflight[0])
}

func (c *BatchClient) recordErr(err error) {
	c.errMu.Lock()
	if c.err == nil && !c.closed {
		c.err = err
	}
	c.errMu.Unlock()
}

// takeErr returns and clears the first collected asynchronous error.
func (c *BatchClient) takeErr() error {
	c.errMu.Lock()
	err := c.err
	c.err = nil
	c.errMu.Unlock()
	return err
}

// Drain flushes the pending batch and waits until every in-flight batch
// has been acknowledged, returning the first collected failure. After a
// failed Drain the undelivered messages remain queued; a later flush or
// Drain retries them.
func (c *BatchClient) Drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.flushLocked(); err != nil {
		return err
	}
	if c.conn == nil {
		return c.takeErr()
	}
	// Filling the window proves no batch still awaits its ack vector.
	claimed := 0
	for i := 0; i < c.opt.Window; i++ {
		select {
		case c.sem <- struct{}{}:
			claimed++
		case <-c.gone:
			// Release the slots this fill already claimed before the sem
			// is abandoned — they are fill tokens, not written batches,
			// and must not read as in-flight data to anyone holding a
			// reference to this connection's channels.
			for j := 0; j < claimed; j++ {
				<-c.sem
			}
			c.resetConnLocked()
			if err := c.takeErr(); err != nil {
				return err
			}
			return fmt.Errorf("wire: connection lost")
		}
	}
	for i := 0; i < c.opt.Window; i++ {
		<-c.sem
	}
	return c.takeErr()
}

// BatchStats counts every message fate a BatchClient can assign. At any
// quiescent point acked+rejected+dropped plus the still-queued messages
// equals the messages enqueued; Dropped is the only loss, and only Close
// with undeliverable messages causes it.
type BatchStats struct {
	// Acked is messages the server acknowledged OK.
	Acked uint64
	// Rejected is messages the server refused (allowlist, signature).
	Rejected uint64
	// Requeued is messages returned to the queue after their connection
	// died before acknowledgement — each one a survived transport fault.
	Requeued uint64
	// Dropped is messages abandoned by Close after a failed final drain.
	Dropped uint64
	// Redials is reconnections after a connection failure.
	Redials uint64
}

// Stats returns a snapshot of the client's delivery accounting — a view
// over the same instruments the metrics registry exposes.
func (c *BatchClient) Stats() BatchStats {
	return BatchStats{
		Acked:    c.acked.Value(),
		Rejected: c.rejected.Value(),
		Requeued: c.requeued.Value(),
		Dropped:  c.dropped.Value(),
		Redials:  c.redials.Value(),
	}
}

// CloseHarvest closes the client immediately and returns every
// undelivered message — the pending buffer plus any batches written but
// not yet acknowledged, in submission order — instead of draining or
// dropping them. It exists for re-routing: when a federation shard
// leaves (or dies), the router harvests the shard's queue and re-enqueues
// it toward the new owners, preserving at-least-once delivery across the
// membership change. Harvested messages are not counted in
// Stats().Dropped; custody transfers to the caller.
func (c *BatchClient) CloseHarvest() []*Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errMu.Lock()
	c.closed = true
	c.errMu.Unlock()
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	// resetConnLocked waits out the ack reader and requeues unacknowledged
	// in-flight batches ahead of pending, so the harvest is race-free and
	// ordered. (A batch whose ack vector was in flight may be harvested
	// anyway and redelivered — the usual at-least-once trade.)
	c.resetConnLocked()
	out := c.pending
	c.pending = nil
	return out
}

// Close drains outstanding batches and closes the connection. Messages
// that still cannot be delivered by the final drain are abandoned and
// counted in Stats().Dropped.
func (c *BatchClient) Close() error {
	err := c.Drain()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errMu.Lock()
	c.closed = true
	c.errMu.Unlock()
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.resetConnLocked()
	if n := len(c.pending); n > 0 {
		c.dropped.Add(uint64(n))
		c.pending = nil
	}
	return err
}
