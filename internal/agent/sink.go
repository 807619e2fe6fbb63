package agent

import (
	"fmt"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/wire"
)

// WireSink forwards reports to the centralized controller over the TCP
// protocol — the deployed configuration. The default sink sends one
// message per round trip; a batched sink (NewWireSinkBatched) pipelines
// reports through wire.BatchClient instead, trading immediate per-report
// acknowledgement for ingest throughput; a reliable sink
// (NewWireSinkReliable) puts a Spool and a retrying delivery loop between
// Submit and the wire, so reporter scheduling never blocks on the network
// and a controller outage costs buffering, not data.
type WireSink struct {
	Client *wire.Client
	// Batch, when set, routes submissions through the pipelined batch
	// protocol instead of Client. Rejections then surface on a later
	// Submit or on Close, not on the Submit that carried the report.
	Batch *wire.BatchClient
	// Key, when set, signs every message with the resource's shared
	// secret (the controller must have the same key registered).
	Key []byte

	// Reliable-delivery state (nil without a spool).
	spool *Spool
	opt   DeliveryOptions
	stop  chan struct{}
	done  chan struct{}

	statMu    sync.Mutex
	replayed  uint64
	rejected  uint64
	dropped   uint64 // dropped after MaxAttempts delivery failures
	lastAcked uint64 // batch-mode bookkeeping: previous bc.Stats() snapshot
	lastRej   uint64
	lastDrop  uint64
}

// DeliveryOptions configures the reliable agent→controller path.
type DeliveryOptions struct {
	// Spool bounds the store-and-forward queue.
	Spool SpoolOptions
	// Client sets the per-attempt dial/read/write deadlines and in-Send
	// retry of the underlying wire client.
	Client wire.ClientOptions
	// Backoff paces redelivery rounds after a failed attempt (defaults:
	// 100ms base, 5s cap; Max is ignored here — the horizon is
	// MaxAttempts). Jittered so a controller restart is not greeted by
	// every agent at once.
	Backoff wire.RetryPolicy
	// MaxAttempts is how many delivery rounds a report gets before it is
	// shed and counted in Dropped (0 = retry until shutdown, the zero-loss
	// deployment setting).
	MaxAttempts int
	// Batch, when set, replays spooled reports through a wire.BatchClient
	// with these options instead of one-message round trips.
	Batch *wire.BatchOptions
}

// DeliveryStats counts the reliable path's work, agent side. At any
// quiescent point Spooled = Replayed + Rejected + Dropped + Depth: every
// submitted report is accounted for, none silently lost.
type DeliveryStats struct {
	// Spooled is reports accepted into the spool.
	Spooled uint64
	// Replayed is reports delivered to and acknowledged OK by the
	// controller, including every redelivery after a fault.
	Replayed uint64
	// Rejected is reports the controller refused (allowlist, signature) —
	// permanent failures, not retried.
	Rejected uint64
	// Dropped is reports shed: spool overflow plus give-ups after
	// MaxAttempts delivery rounds.
	Dropped uint64
	// Reconnects is transport-level redials after a failure.
	Reconnects uint64
	// Retries is in-Send attempts beyond each message's first.
	Retries uint64
	// Depth is reports still queued for delivery.
	Depth int
}

// NewWireSink dials addr lazily on first submit.
func NewWireSink(addr string) *WireSink {
	return &WireSink{Client: wire.NewClient(addr)}
}

// NewWireSinkOptions is NewWireSink with explicit wire client deadlines
// and in-Send retry.
func NewWireSinkOptions(addr string, opt wire.ClientOptions) *WireSink {
	return &WireSink{Client: wire.NewClientOptions(addr, opt)}
}

// NewWireSinkBatched returns a sink that accumulates reports into batch
// frames and keeps several batches in flight. opt controls the flush
// size, pipeline window, and flush interval (zero values take the
// wire.BatchOptions defaults).
func NewWireSinkBatched(addr string, opt wire.BatchOptions) *WireSink {
	return &WireSink{Batch: wire.NewBatchClient(addr, opt)}
}

// NewWireSinkReliable returns a sink whose Submit always succeeds
// immediately into a bounded spool, while a background loop delivers
// spooled reports in order with per-attempt deadlines, reconnection, and
// jittered exponential backoff. Reports leave the spool only once
// acknowledged (or permanently rejected), giving at-least-once delivery
// across controller restarts.
func NewWireSinkReliable(addr string, opt DeliveryOptions) (*WireSink, error) {
	spool, err := NewSpool(opt.Spool)
	if err != nil {
		return nil, err
	}
	w := &WireSink{
		spool: spool,
		opt:   opt,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if opt.Batch != nil {
		w.Batch = wire.NewBatchClient(addr, *opt.Batch)
	} else {
		w.Client = wire.NewClientOptions(addr, opt.Client)
	}
	go w.deliver()
	return w, nil
}

// Submit implements Sink.
func (w *WireSink) Submit(id branch.ID, hostname string, reportXML []byte) error {
	m := &wire.Message{
		Branch:   id.String(),
		Hostname: hostname,
		Report:   reportXML,
	}
	if len(w.Key) > 0 {
		wire.SignMessage(m, w.Key)
	}
	if w.spool != nil {
		return w.spool.Put(m)
	}
	if w.Batch != nil {
		return w.Batch.Enqueue(m)
	}
	ack, err := w.Client.Send(m)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("agent: server rejected report: %s", ack.Message)
	}
	return nil
}

// deliver is the spool replay loop: take the head, send it, pop it only
// on acknowledgement; back off (with jitter) between failed rounds so an
// unreachable controller costs idle waiting, not a connect storm.
func (w *WireSink) deliver() {
	defer close(w.done)
	if w.Batch != nil {
		w.deliverBatched()
		return
	}
	attempts := 0 // failed delivery rounds for the current head entry
	for {
		m, ok := w.spool.Peek(w.stop)
		if !ok {
			return
		}
		ack, err := w.Client.Send(m)
		if err == nil {
			w.spool.PopN(1)
			attempts = 0
			w.statMu.Lock()
			if ack.OK {
				w.replayed++
			} else {
				w.rejected++ // permanent: redelivering would re-refuse
			}
			w.statMu.Unlock()
			continue
		}
		attempts++
		if w.opt.MaxAttempts > 0 && attempts >= w.opt.MaxAttempts {
			w.spool.PopN(1)
			attempts = 0
			w.statMu.Lock()
			w.dropped++
			w.statMu.Unlock()
			continue
		}
		select {
		case <-time.After(w.opt.Backoff.Backoff(attempts)):
		case <-w.stop:
			return
		}
	}
}

// deliverBatched replays through the batch client: custody of a chunk
// transfers to the BatchClient (which itself requeues unacknowledged
// batches on connection loss), and the loop drains it before taking more,
// so a chunk is never double-submitted.
func (w *WireSink) deliverBatched() {
	maxChunk := w.Batch.Options().MaxBatch
	attempts := 0
	for {
		if _, ok := w.spool.Peek(w.stop); !ok {
			// Final best-effort drain of messages already in custody: the
			// sink is stopping, nothing is left to act on a failure, and
			// the batch client's counters still account for every message.
			_ = w.Batch.Drain()
			w.syncBatchStats()
			return
		}
		chunk := w.spool.PeekBatch(maxChunk)
		// The batch client reports an asynchronous failure once, to
		// whichever call sees it first — an Enqueue as readily as the
		// Drain below — so the first error of the whole hand-over drives
		// the backoff.
		var failed error
		for _, m := range chunk {
			if err := w.Batch.Enqueue(m); err != nil && failed == nil {
				failed = err
			}
		}
		// Custody transferred: the batch client now owns these messages
		// and never discards them uncounted (see wire.BatchStats).
		w.spool.PopN(len(chunk))
		for {
			err := w.Batch.Drain()
			w.syncBatchStats()
			if err == nil {
				err, failed = failed, nil
			}
			if err == nil {
				attempts = 0
				break
			}
			attempts++
			select {
			case <-time.After(w.opt.Backoff.Backoff(attempts)):
			case <-w.stop:
				return
			}
		}
	}
}

// syncBatchStats folds the batch client's delivery accounting deltas into
// the sink counters.
func (w *WireSink) syncBatchStats() {
	st := w.Batch.Stats()
	w.statMu.Lock()
	w.replayed += st.Acked - w.lastAcked
	w.rejected += st.Rejected - w.lastRej
	w.dropped += st.Dropped - w.lastDrop
	w.lastAcked, w.lastRej, w.lastDrop = st.Acked, st.Rejected, st.Dropped
	w.statMu.Unlock()
}

// DeliveryStats returns a snapshot of the reliable path's accounting.
// Without a spool (plain or batched sink) it reports what the underlying
// client counts.
func (w *WireSink) DeliveryStats() DeliveryStats {
	var s DeliveryStats
	w.statMu.Lock()
	s.Replayed = w.replayed
	s.Rejected = w.rejected
	s.Dropped = w.dropped
	w.statMu.Unlock()
	if w.spool != nil {
		ss := w.spool.Stats()
		s.Spooled = ss.Spooled
		s.Dropped += ss.Dropped
		s.Depth = ss.Depth
	}
	if w.Client != nil {
		cs := w.Client.Stats()
		s.Reconnects = cs.Reconnects
		s.Retries = cs.Retries
		if w.spool == nil {
			s.Replayed = cs.Sent
		}
	}
	if w.Batch != nil {
		bs := w.Batch.Stats()
		s.Reconnects = bs.Redials
		if w.spool == nil {
			s.Replayed = bs.Acked
			s.Rejected = bs.Rejected
			s.Dropped = bs.Dropped
		}
	}
	return s
}

// SpoolDepth returns the number of reports queued for delivery in the
// reliable spool, or 0 without one. Implements SpoolDepther.
func (w *WireSink) SpoolDepth() int {
	if w.spool == nil {
		return 0
	}
	return w.spool.Depth()
}

// Drain blocks until every spooled report has been delivered (or shed and
// counted), or the timeout expires. Only meaningful on a reliable sink;
// on others it is a no-op.
func (w *WireSink) Drain(timeout time.Duration) error {
	if w.spool == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		if w.spool.Depth() == 0 {
			if w.Batch == nil {
				return nil
			}
			// Batch mode: depth 0 only means custody transferred; the
			// batch client must also confirm everything acknowledged.
			if err := w.Batch.Drain(); err == nil {
				w.syncBatchStats()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agent: drain timeout with %d reports still spooled", w.spool.Depth())
		}
		select {
		case <-w.done:
			return fmt.Errorf("agent: delivery loop stopped with %d reports still spooled", w.spool.Depth())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close stops the delivery loop (if any), drains any pending batches, and
// closes the underlying connection. With a spool directory, reports still
// queued (in memory or on disk) persist for the next process; callers
// wanting an empty spool first should Drain with a deadline before
// closing.
func (w *WireSink) Close() error {
	if w.spool != nil {
		close(w.stop)
		<-w.done
		w.spool.Close()
	}
	if w.Batch != nil {
		return w.Batch.Close()
	}
	return w.Client.Close()
}
