package agent

import (
	"fmt"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/metrics"
	"inca/internal/simtime"
	"inca/internal/wire"
)

// Redelivery backoff after a failed drain: jittered (simtime.Backoff), so a
// controller restart is not greeted by every agent at once.
const (
	redeliverBase = 100 * time.Millisecond
	redeliverCap  = 5 * time.Second
)

// WireSink forwards reports to the centralized controller over the TCP
// protocol — the deployed configuration, and the only delivery path there
// is: Submit signs the report and puts it in a Spool, and one background
// loop hands the spool's head to a wire.BatchClient a frame at a time,
// removing entries only once the controller has answered for them. Reporter
// scheduling therefore never blocks on the network, a controller outage
// costs buffering, not data, and a rejection shows in DeliveryStats rather
// than on the Submit that carried the report.
type WireSink struct {
	// Key, when set, signs every message with the resource's shared
	// secret (the controller must have the same key registered).
	Key []byte

	spool *Spool
	batch *wire.BatchClient
	clock simtime.Clock
	stop  chan struct{}
	done  chan struct{}

	// statMu also covers the PopN that goes with each fold, so a
	// DeliveryStats snapshot never sees an entry in neither place.
	statMu   sync.Mutex
	replayed uint64
	rejected uint64
}

// DeliveryOptions configures the agent→controller path.
type DeliveryOptions struct {
	// Spool bounds the store-and-forward queue; with Spool.Dir set it
	// overflows to disk and survives the process.
	Spool SpoolOptions
	// IOTimeout bounds each frame write and ack wait (see
	// wire.BatchOptions.IOTimeout; zero takes its default).
	IOTimeout time.Duration
	// Metrics, when set, registers the batch client's instruments there.
	Metrics *metrics.Registry
	// Clock paces redelivery backoff and Drain's deadline. Nil uses the
	// wall clock; tests inject a simtime.Sim.
	Clock simtime.Clock
}

// DeliveryStats counts the delivery path's work, agent side. Spooled =
// Replayed + Rejected + Dropped + Depth at every instant: an entry leaves
// the spool only by being answered for or by being shed, and each is
// counted as it goes.
type DeliveryStats struct {
	// Spooled is reports accepted into the spool, those recovered from a
	// previous process included.
	Spooled uint64
	// Replayed is reports delivered to and acknowledged OK by the
	// controller.
	Replayed uint64
	// Rejected is reports the controller refused (allowlist, signature) —
	// permanent failures, not retried.
	Rejected uint64
	// Dropped is reports shed by the spool's memory and disk bounds.
	Dropped uint64
	// Reconnects is transport-level redials after a failure.
	Reconnects uint64
	// Depth is reports still queued for delivery.
	Depth int
}

// NewWireSink opens the spool (recovering what a previous process left in
// opt.Spool.Dir) and starts the delivery loop toward addr, which is dialled
// when there is first something to send.
func NewWireSink(addr string, opt DeliveryOptions) (*WireSink, error) {
	spool, err := NewSpool(opt.Spool)
	if err != nil {
		return nil, err
	}
	clock := opt.Clock
	if clock == nil {
		clock = simtime.Real{}
	}
	w := &WireSink{
		spool: spool,
		// The loop drains after every hand-over, so the flush timer would
		// never fire first.
		batch: wire.NewBatchClient(addr, wire.BatchOptions{
			FlushInterval: -1,
			IOTimeout:     opt.IOTimeout,
			Metrics:       opt.Metrics,
		}),
		clock: clock,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go w.deliver()
	return w, nil
}

// Submit implements Sink. It never touches the network: the error is the
// spool's, returned only after Close.
func (w *WireSink) Submit(id branch.ID, hostname string, reportXML []byte) error {
	m := &wire.Message{
		Branch:   id.String(),
		Hostname: hostname,
		Report:   reportXML,
	}
	if len(w.Key) > 0 {
		wire.SignMessage(m, w.Key)
	}
	return w.spool.Put(m)
}

// deliver is the delivery loop: lease up to one frame's worth from the head
// of the spool, hand it to the batch client, and drain; pop the chunk only
// when the controller has answered for all of it. Until then the spool
// holds the only copy that counts — the batch client keeps an unanswered
// chunk queued and resends it on the next drain, after a backoff.
func (w *WireSink) deliver() {
	defer close(w.done)
	frame := w.batch.Options().MaxBatch
	for {
		if _, ok := w.spool.Peek(w.stop); !ok {
			return
		}
		chunk := w.spool.PeekBatch(frame)
		before := w.batch.Stats()
		for _, m := range chunk {
			// Enqueue and Drain report, once, the first failure of any
			// earlier frame, not the fate of this chunk; the ack ledger
			// below is what decides, so their errors are not consulted.
			_ = w.batch.Enqueue(m)
		}
		for attempt := 1; ; attempt++ {
			_ = w.batch.Drain()
			st := w.batch.Stats()
			acked, rejected := st.Acked-before.Acked, st.Rejected-before.Rejected
			if acked+rejected == uint64(len(chunk)) {
				w.statMu.Lock()
				w.spool.PopN(len(chunk))
				w.replayed += acked
				w.rejected += rejected // permanent: redelivering would re-refuse
				w.statMu.Unlock()
				break
			}
			select {
			case <-w.clock.After(simtime.Backoff(redeliverBase, redeliverCap, attempt)):
			case <-w.stop:
				return
			}
		}
	}
}

// DeliveryStats returns a snapshot of the delivery path's accounting.
func (w *WireSink) DeliveryStats() DeliveryStats {
	w.statMu.Lock()
	defer w.statMu.Unlock()
	ss := w.spool.Stats()
	return DeliveryStats{
		Spooled:    ss.Spooled,
		Replayed:   w.replayed,
		Rejected:   w.rejected,
		Dropped:    ss.Dropped,
		Reconnects: w.batch.Stats().Redials,
		Depth:      ss.Depth,
	}
}

// Drain blocks until every spooled report has been answered for (or shed
// and counted), or the timeout expires on the sink's clock.
func (w *WireSink) Drain(timeout time.Duration) error {
	expired := w.clock.After(timeout)
	for {
		depth, changed := w.spool.watch()
		if depth == 0 {
			return nil
		}
		select {
		case <-changed:
		case <-expired:
			return fmt.Errorf("agent: drain timeout with %d reports still spooled", depth)
		case <-w.done:
			return fmt.Errorf("agent: delivery loop stopped with %d reports still spooled", depth)
		}
	}
}

// Close stops the delivery loop and closes the connection and the spool.
// With a spool directory, reports still queued — a chunk in flight
// included — persist for the next process; callers wanting an empty spool
// first should Drain with a deadline before closing.
func (w *WireSink) Close() error {
	close(w.stop)
	<-w.done
	// Whatever the batch client still held is in the spool too: harvest
	// rather than Close, which would try the network once more and count
	// the chunk as dropped.
	w.batch.CloseHarvest()
	return w.spool.Close()
}
