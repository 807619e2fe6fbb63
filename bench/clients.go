package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"inca/internal/query"
	"inca/internal/wire"
)

// Phases of a run, as the clients see them.
const (
	phaseWarm    int32 = iota // load is on, nothing is recorded
	phaseMeasure              // completed operations are recorded
	phaseStop                 // clients finish their current operation and return
)

// runClock tells the clients which phase the run is in.
type runClock struct {
	phase atomic.Int32
	began time.Time // of the measured window; set before phase says so
	stop  chan struct{}
}

func newRunClock() *runClock { return &runClock{stop: make(chan struct{})} }

func (c *runClock) beginMeasure() {
	c.began = time.Now()
	c.phase.Store(phaseMeasure)
}

// sample records one unit of work that completed at done after taking took.
func (c *runClock) sample(done time.Time, took time.Duration) sample {
	return sample{at: done.Sub(c.began), took: took, n: 1}
}

func (c *runClock) end() {
	c.phase.Store(phaseStop)
	close(c.stop)
}

// clientStats is what one client goroutine measured. Each client owns its
// own, so recording takes no lock.
type clientStats struct {
	ack, subtree, revalidate, fresh, late []sample

	// acked and reads are read by the run while the client is going (the
	// fixed-work quota, the traced run's half-way point), hence atomic.
	acked       atomic.Int64 // reports acknowledged inside the measured window
	reads       atomic.Int64 // reads completed inside the measured window
	stored      int64        // reports acknowledged over the whole phase, warm-up included
	notModified int64        // reads inside the window answered 304
	events      int64        // change events received inside the measured window
	resyncs     int64        // snapshot events after the first

	// attempted and failed cover the whole run, warm-up included: a failure
	// outside the window is still a failure of the system under test.
	attempted, failed int64
	err               error // first transport error; ends the client
}

// ackRecord is the newest acknowledged report of one branch.
type ackRecord struct {
	seq  int
	sent int64
}

// ioTimeout bounds every client operation, so a hung server fails the run
// instead of hanging it.
const ioTimeout = 20 * time.Second

// batchSize is the reports per wire batch, the agent's flush unit.
const batchSize = 8

// writer is one closed-loop reporter connection: it sends a batch frame and
// waits for the batch's ack vector before building the next.
type writer struct {
	conn  net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	ops   *opStream
	bb    *batchBuilder
	picks []int
	acked []ackRecord // indexed by branch; a branch has one writer
	st    clientStats
	sb    *spanBuf
	req   uint64
}

func newWriter(addr string, ops *opStream, bb *batchBuilder, acked []ackRecord, sb *spanBuf) (*writer, error) {
	conn, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &writer{
		conn: conn, bw: bufio.NewWriterSize(conn, 16<<10), br: bufio.NewReader(conn),
		ops: ops, bb: bb, picks: make([]int, batchSize), acked: acked, sb: sb,
	}, nil
}

// sendPicks sends one batch for the given branches and waits for its acks.
// The latency sample runs from due when it is set (an open-loop firing),
// otherwise from the send stamp.
func (w *writer) sendPicks(clk *runClock, picks []int, due time.Time) error {
	w.req++
	root := w.sb.start("writer.batch", 0, w.req)
	defer w.sb.end(root)

	s := w.sb.start("gen.build_batch", root, w.req)
	now := time.Now()
	msgs := w.bb.build(picks, now)
	w.sb.end(s)
	w.st.attempted += int64(len(msgs))

	w.conn.SetDeadline(now.Add(ioTimeout))
	s = w.sb.start("wire.write_batch", root, w.req)
	err := wire.WriteBatch(w.bw, msgs)
	if err == nil {
		err = w.bw.Flush()
	}
	w.sb.end(s)
	if err != nil {
		w.st.failed += int64(len(msgs))
		return fmt.Errorf("write batch: %w", err)
	}

	s = w.sb.start("wire.wait_acks", root, w.req)
	acks, err := wire.ReadAckVector(w.br)
	w.sb.end(s)
	done := time.Now()
	if err != nil || len(acks) != len(msgs) {
		w.st.failed += int64(len(msgs))
		return fmt.Errorf("read ack vector (%d acks for %d messages): %v", len(acks), len(msgs), err)
	}
	ok := 0
	for i, a := range acks {
		if !a.OK {
			w.st.failed++
			continue
		}
		w.acked[picks[i]] = ackRecord{seq: w.bb.seqs[picks[i]], sent: now.UnixNano()}
		ok++
	}
	w.st.stored += int64(ok)
	if clk.phase.Load() == phaseMeasure {
		from := now
		if !due.IsZero() {
			from = due
		}
		smp := clk.sample(done, done.Sub(from))
		smp.n = ok
		w.st.ack = append(w.st.ack, smp)
		w.st.acked.Add(int64(ok))
	}
	return nil
}

func (w *writer) sendNext(clk *runClock, due time.Time) error {
	w.ops.nextBatch(w.picks)
	return w.sendPicks(clk, w.picks, due)
}

// seed stores report 1 of every branch the writer owns.
func (w *writer) seed(clk *runClock) error {
	for i := 0; i < len(w.ops.owned); i += batchSize {
		end := i + batchSize
		if end > len(w.ops.owned) {
			end = len(w.ops.owned)
		}
		if err := w.sendPicks(clk, w.ops.owned[i:end], time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// runClosed is the closed-loop writer. With quota 0 it runs until the clock
// stops. With a quota it is fixed work: warmQuota reports unrecorded, then a
// wait at the barrier until every writer is warm, then exactly quota
// recorded reports.
func (w *writer) runClosed(clk *runClock, warmQuota, quota int64, warm chan<- struct{}, measure <-chan struct{}) {
	defer w.conn.Close()
	if quota > 0 {
		for sent := int64(0); sent < warmQuota; sent += batchSize {
			if w.st.err = w.sendNext(clk, time.Time{}); w.st.err != nil {
				warm <- struct{}{}
				return
			}
		}
		warm <- struct{}{}
		<-measure
	}
	for clk.phase.Load() != phaseStop && (quota == 0 || w.st.acked.Load() < quota) {
		if w.st.err = w.sendNext(clk, time.Time{}); w.st.err != nil {
			return
		}
	}
}

// runPaced is the open-loop writer: every period a burst of batches is due,
// the way cron fires a host's reporters together. Firing times come from
// the pacer, never from when the last burst finished, and the first batch
// of a burst is timed from the moment the burst was due.
func (w *writer) runPaced(clk *runClock, period time.Duration, burst int) {
	defer w.conn.Close()
	// Bursts fall half a period off the whole seconds at which the warm-up
	// and the window end, so none straddles a phase boundary.
	p := pacer{start: time.Now().Add(period / 2), period: period}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		due := p.next()
		timer.Reset(time.Until(due))
		select {
		case <-clk.stop:
			return
		case <-timer.C:
		}
		began := time.Now()
		if clk.phase.Load() == phaseMeasure {
			w.st.late = append(w.st.late, clk.sample(began, lateness(due, began)))
		}
		from := due
		for i := 0; i < burst && clk.phase.Load() != phaseStop; i++ {
			if w.st.err = w.sendNext(clk, from); w.st.err != nil {
				return
			}
			from = time.Time{}
		}
	}
}

// reader is the closed-loop dashboard: subtree reads of one site's reports
// and whole-cache revalidations carrying the last ETag.
type reader struct {
	qc      *query.Client
	ops     *opStream
	etag    string
	wantLen int // exact length of a correct subtree body
	st      clientStats
	sb      *spanBuf
	req     uint64
}

var storedOpen = []byte(`<stored branch="`)

// subtreeBodyLen is the length of GET /reports for one site: every report
// is reportSize bytes and every identifier of a site has one length.
func subtreeBodyLen(ws *workingSet, reportSize int) int {
	n := len("<reports></reports>")
	for _, id := range ws.ids[:ws.probes] {
		n += len(storedOpen) + len(id) + len(`">`) + reportSize + len("</stored>")
	}
	return n
}

// read performs one read and records it; a wrong answer counts as failed.
func (r *reader) read(clk *runClock, class, site int) {
	r.req++
	r.st.attempted++
	start := time.Now()
	var err error
	var notModified bool
	switch class {
	case opSubtree:
		s := r.sb.start("reader.subtree", 0, r.req)
		var body []byte
		body, err = r.qc.Reports(r.ops.ws.prefixes[site])
		if err == nil && (len(body) != r.wantLen || bytes.Count(body, storedOpen) != r.ops.ws.probes) {
			err = fmt.Errorf("subtree %s: %d bytes with %d reports, want %d with %d",
				r.ops.ws.prefixes[site], len(body), bytes.Count(body, storedOpen), r.wantLen, r.ops.ws.probes)
		}
		r.sb.end(s)
	case opRevalidate:
		s := r.sb.start("reader.revalidate", 0, r.req)
		var body []byte
		body, r.etag, notModified, err = r.qc.CacheConditional("", r.etag)
		if err == nil && !notModified && len(body) == 0 {
			err = fmt.Errorf("revalidate: empty 200 body")
		}
		r.sb.end(s)
	}
	done := time.Now()
	if err != nil {
		r.st.failed++
		if r.st.err == nil {
			r.st.err = err
		}
		return
	}
	if clk.phase.Load() != phaseMeasure {
		return
	}
	r.st.reads.Add(1)
	smp := clk.sample(done, done.Sub(start))
	if class == opSubtree {
		r.st.subtree = append(r.st.subtree, smp)
	} else {
		r.st.revalidate = append(r.st.revalidate, smp)
		if notModified {
			r.st.notModified++
		}
	}
}

// run is the closed-loop reader: the next read as soon as the last returns.
func (r *reader) run(clk *runClock) {
	for clk.phase.Load() != phaseStop {
		class, site := r.ops.nextRead()
		r.read(clk, class, site)
	}
}

// subscriber is a passive /feed consumer: it only receives. For every
// change event it computes the age of the report the event carries, from the
// send stamp the generator embedded.
type subscriber struct {
	stream *query.FeedStream
	st     clientStats
	sb     *spanBuf
}

func newSubscriber(qc *query.Client, prefix string, sb *spanBuf) (*subscriber, error) {
	stream, err := qc.FeedSubscribe(prefix, "", "")
	if err != nil {
		return nil, fmt.Errorf("subscribe /feed: %w", err)
	}
	first, err := stream.Next()
	if err != nil || first.Type != "snapshot" {
		stream.Close()
		return nil, fmt.Errorf("subscribe /feed: first event %q: %v", first.Type, err)
	}
	return &subscriber{stream: stream, sb: sb}, nil
}

// run receives until the stream ends; the run closes it once the clock stops.
func (s *subscriber) run(clk *runClock) {
	for {
		ev, err := s.stream.Next()
		now := time.Now()
		if err != nil {
			if clk.phase.Load() != phaseStop {
				s.st.err = fmt.Errorf("feed stream: %w", err)
				s.st.failed++
			}
			return
		}
		sp := s.sb.start("feed.event", 0, 0)
		measuring := clk.phase.Load() == phaseMeasure
		switch ev.Type {
		case "change":
			if !bytes.Contains(ev.Data, reportKind) {
				break // a policy or manual-archive change
			}
			sent, ok := eventSentStamp(ev.Data)
			if !ok {
				s.st.failed++
				break
			}
			if measuring {
				s.st.events++
				s.st.fresh = append(s.st.fresh, clk.sample(now, now.Sub(sent)))
			}
		case "snapshot":
			// The hub demoted a subscriber that fell behind.
			s.st.resyncs++
		}
		s.sb.end(sp)
	}
}
