package agent

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"inca/internal/journal"
	"inca/internal/wire"
)

// Spool is the bounded store-and-forward queue between the agent's
// reporter executions and the wire delivery loop: every Submit lands here
// immediately (the scheduler never waits on the network), and the
// delivery loop replays entries to the centralized controller in
// submission order, removing each only after it is acknowledged — the
// at-least-once half of the reliable-delivery guarantee.
//
// With Dir set every Put appends the entry's wire frame to a journal
// (internal/journal) before it returns, so a killed agent loses nothing
// Put accepted, and memory is a read-ahead window of the queue's head.
// The spool never blocks a Put and never sheds silently.
//
// The lease is what lets the delivery loop pop after the ack: the prefix
// Peek or PeekBatch handed out stays where it is until PopN, so PopN(n)
// removes exactly the n entries that were sent.
type Spool struct {
	opt SpoolOptions

	mu       sync.Mutex
	mem      []*wire.Message
	memBytes int
	leased   int           // length of the head prefix handed out and not yet popped
	notify   chan struct{} // closed and replaced on every Put, PopN and Close (broadcast)
	closed   bool
	queued   int64 // frame bytes of every queued entry: the DiskLimitBytes bound

	// With Dir set: seqs[i] is the journal segment holding mem[i] (0: its
	// append failed, it is held in memory only), and next is where the
	// unread records past the window start.
	j      *journal.Journal
	seqs   []uint64
	next   journal.Pos
	unread int
	enc    bytes.Buffer

	spooled    uint64
	dropped    uint64
	overflowed uint64
}

// SpoolOptions configures a Spool.
type SpoolOptions struct {
	// MemLimitBytes bounds the in-memory queue by summed report bytes
	// (default 8 MiB); with Dir set, the read-ahead window.
	MemLimitBytes int
	// Dir, when set, holds the spool's journal, so the queue survives the
	// process.
	Dir string
	// DiskLimitBytes bounds the whole queue when Dir is set (default
	// 256 MiB); an entry past it is shed.
	DiskLimitBytes int64
}

func (o *SpoolOptions) fill() {
	if o.MemLimitBytes <= 0 {
		o.MemLimitBytes = 8 << 20
	}
	if o.DiskLimitBytes <= 0 {
		o.DiskLimitBytes = 256 << 20
	}
}

// SpoolStats is a snapshot of spool accounting. Spooled − Dropped −
// delivered = Depth at any quiescent point.
type SpoolStats struct {
	// Spooled is entries accepted by Put or recovered from a previous
	// process.
	Spooled uint64
	// Dropped is entries shed to respect the memory/disk bounds.
	Dropped uint64
	// Overflowed is entries put past the memory window, read back from
	// the journal.
	Overflowed uint64
	// Depth is entries currently queued (memory + journal).
	Depth int
}

// NewSpool opens a spool. With a Dir configured, entries left over by a
// previous process are recovered and will be replayed first; so are those
// of a spool.dat, the overflow file of earlier releases, which is then
// removed.
func NewSpool(opt SpoolOptions) (*Spool, error) {
	opt.fill()
	s := &Spool{opt: opt, notify: make(chan struct{})}
	if opt.Dir == "" {
		return s, nil
	}
	j, err := journal.Open(opt.Dir, func(rec []byte, at journal.Pos) error {
		s.queueLocked(at, int64(len(rec)))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("agent: spool: %w", err)
	}
	s.j = j
	if err := s.importLegacy(filepath.Join(opt.Dir, "spool.dat")); err != nil {
		j.Close()
		return nil, fmt.Errorf("agent: spool: %w", err)
	}
	s.spooled = uint64(s.unread) // recovered entries are on this process's ledger too
	return s, nil
}

// importLegacy appends the wire frames in path, up to the first torn one,
// to the journal, and removes the file.
func (s *Spool) importLegacy(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	defer f.Close()
	for br := bufio.NewReader(f); ; {
		m, err := wire.ReadMessage(br)
		if err != nil {
			return os.Remove(path)
		}
		at, err := s.logLocked(m)
		if err != nil {
			return err
		}
		s.queueLocked(at, frameSize(m))
	}
}

// queueLocked counts a journal record past the memory window.
func (s *Spool) queueLocked(at journal.Pos, size int64) {
	if s.unread == 0 {
		s.next = at
	}
	s.unread++
	s.queued += size
}

// frameSize is the size of one wire frame: four length-prefixed parts
// (branch, hostname, report, signature).
func frameSize(m *wire.Message) int64 {
	return int64(16 + len(m.Branch) + len(m.Hostname) + len(m.Report) + len(m.Signature))
}

// memCost approximates an entry's memory footprint for the MemLimitBytes
// bound.
func memCost(m *wire.Message) int {
	return int(frameSize(m)) + 48
}

// frameLocked returns m's wire frame in a buffer the next call reuses.
func (s *Spool) frameLocked(m *wire.Message) ([]byte, error) {
	s.enc.Reset()
	err := wire.WriteMessage(&s.enc, m)
	return s.enc.Bytes(), err
}

func (s *Spool) logLocked(m *wire.Message) (journal.Pos, error) {
	rec, err := s.frameLocked(m)
	if err != nil {
		return journal.Pos{}, err
	}
	return s.j.Append(rec)
}

// Put accepts one entry. It never blocks: past the queue's bound an entry
// is shed and counted in Dropped — with Dir set the new one (the order on
// disk is an acceptance guarantee, newest-at-any-cost is not), without it
// the oldest not on lease (newest data is the signal worth keeping).
func (s *Spool) Put(m *wire.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("agent: spool closed")
	}
	s.spooled++
	var seq uint64
	if s.j != nil {
		if s.queued+frameSize(m) > s.opt.DiskLimitBytes {
			s.dropped++
			return nil
		}
		at, err := s.logLocked(m)
		switch {
		case err == nil && (s.unread > 0 || s.memBytes+memCost(m) > s.opt.MemLimitBytes):
			s.queueLocked(at, frameSize(m))
			s.overflowed++
			s.signalLocked()
			return nil
		case err == nil:
			seq = at.Seq
		case s.unread > 0:
			// Unwritable journal with older entries unread on it: holding
			// m in memory would jump it ahead of them. Shed it instead.
			s.dropped++
			return nil
		}
		// In the window, or unwritable with nothing unread: held in memory,
		// the latter as a memory-only spool holds it.
	}
	for s.memBytes+memCost(m) > s.opt.MemLimitBytes && len(s.mem) > s.leased {
		// Shed the entry behind the leased prefix: slide the prefix over
		// its slot, then step the queue past the vacated head.
		s.memBytes -= memCost(s.mem[s.leased])
		s.queued -= frameSize(s.mem[s.leased])
		copy(s.mem[1:s.leased+1], s.mem[:s.leased])
		s.mem = s.mem[1:]
		if s.j != nil {
			copy(s.seqs[1:s.leased+1], s.seqs[:s.leased])
			s.seqs = s.seqs[1:]
		}
		s.dropped++
	}
	if s.memBytes+memCost(m) > s.opt.MemLimitBytes && s.j == nil {
		// No room left to make: the entry is larger than the whole bound,
		// or everything held is on lease. With no disk to take it, shed it.
		s.dropped++
		return nil
	}
	s.mem = append(s.mem, m)
	s.memBytes += memCost(m)
	s.queued += frameSize(m)
	if s.j != nil {
		s.seqs = append(s.seqs, seq)
	}
	s.signalLocked()
	return nil
}

// signalLocked wakes every waiting Peek and watch.
func (s *Spool) signalLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// errWindowFull stops a refill that has read enough.
var errWindowFull = errors.New("agent: spool window full")

// refillLocked reads unread records into the memory window, up to half
// the memory bound. After Close they stay where Close left them.
func (s *Spool) refillLocked() {
	if s.unread == 0 || s.closed {
		return
	}
	err := s.j.ReadFrom(s.next, func(rec []byte, next journal.Pos) error {
		m, err := wire.ReadMessage(bytes.NewReader(rec))
		if err != nil {
			return err
		}
		s.next, s.unread = next, s.unread-1
		s.mem, s.seqs = append(s.mem, m), append(s.seqs, next.Seq)
		s.memBytes += memCost(m)
		if s.unread == 0 || s.memBytes > s.opt.MemLimitBytes/2 {
			return errWindowFull
		}
		return nil
	})
	if !errors.Is(err, errWindowFull) {
		// Unreadable: abandon the rest rather than stall the queue.
		s.dropped += uint64(s.unread)
		s.unread, s.queued = 0, 0
		for _, m := range s.mem {
			s.queued += frameSize(m)
		}
	}
}

// trimLocked deletes the journal segments behind the queue's head, all of
// them once nothing journaled is queued. A failed trim leaves popped
// records for the next one (or, after a kill, for redelivery).
func (s *Spool) trimLocked() {
	for _, seq := range s.seqs {
		if seq != 0 {
			_ = s.j.Trim(seq)
			return
		}
	}
	if s.unread > 0 {
		_ = s.j.Trim(s.next.Seq)
	} else if seq, err := s.j.Rotate(); err == nil {
		_ = s.j.Trim(seq)
	}
}

// Peek blocks until the head entry is available and returns it, on lease,
// without removing it; the entry leaves the spool only on PopN, after the
// delivery loop has its acknowledgement. Returns false when the spool
// closes or stop fires.
func (s *Spool) Peek(stop <-chan struct{}) (*wire.Message, bool) {
	for {
		s.mu.Lock()
		if len(s.mem) == 0 {
			s.refillLocked()
		}
		if len(s.mem) > 0 {
			m := s.mem[0]
			if s.leased == 0 {
				s.leased = 1
			}
			s.mu.Unlock()
			return m, true
		}
		if s.closed {
			s.mu.Unlock()
			return nil, false
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return nil, false
		}
	}
}

// PeekBatch returns up to n queued entries from the head, on lease, without
// removing them (non-blocking; call after a successful Peek).
func (s *Spool) PeekBatch(n int) []*wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.mem) < n {
		s.refillLocked()
	}
	if n > len(s.mem) {
		n = len(s.mem)
	}
	out := make([]*wire.Message, n)
	copy(out, s.mem[:n])
	if n > s.leased {
		s.leased = n
	}
	return out
}

// PopN removes the n oldest entries and ends their lease — the delivery
// loop's acknowledgement that the controller answered for each of them.
func (s *Spool) PopN(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.mem) {
		n = len(s.mem)
	}
	if s.leased -= n; s.leased < 0 {
		s.leased = 0
	}
	for i := 0; i < n; i++ {
		s.memBytes -= memCost(s.mem[i])
		s.queued -= frameSize(s.mem[i])
	}
	s.mem = append(s.mem[:0:0], s.mem[n:]...)
	if s.j != nil {
		s.seqs = append(s.seqs[:0:0], s.seqs[n:]...)
		s.trimLocked()
	}
	s.signalLocked()
}

// Depth returns how many entries are queued (memory + journal).
func (s *Spool) Depth() int {
	depth, _ := s.watch()
	return depth
}

// watch returns the depth and a channel closed at the next Put, PopN or
// Close, so a caller can wait for the depth to change without polling.
func (s *Spool) watch() (int, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) + s.unread, s.notify
}

// Stats returns a snapshot of the spool counters.
func (s *Spool) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpoolStats{
		Spooled:    s.spooled,
		Dropped:    s.dropped,
		Overflowed: s.overflowed,
		Depth:      len(s.mem) + s.unread,
	}
}

// Close stops accepting entries and releases the journal, rewritten to
// exactly the entries still queued — the memory window, leased entries
// included, then the unread records — so a clean shutdown with an
// unreachable controller loses nothing and a restart replays nothing
// twice. Memory-only spools lose their queue at exit, which is why
// shutdown paths drain the delivery loop before closing.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.signalLocked()
	if s.j == nil {
		return nil
	}
	err := s.j.Rewrite(func(put func([]byte) error) error {
		for _, m := range s.mem {
			rec, err := s.frameLocked(m)
			if err == nil {
				err = put(rec)
			}
			if err != nil {
				return err
			}
		}
		if s.unread == 0 {
			return nil
		}
		return s.j.ReadFrom(s.next, func(rec []byte, _ journal.Pos) error { return put(rec) })
	})
	return cmp.Or(err, s.j.Close())
}
