package agent

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"inca/internal/wire"
)

// Spool is the bounded store-and-forward queue between the agent's
// reporter executions and the wire delivery loop: every Submit lands here
// immediately (the scheduler never waits on the network), and the
// delivery loop replays entries to the centralized controller in
// submission order, removing each only after it is acknowledged — the
// at-least-once half of the reliable-delivery guarantee.
//
// Memory is bounded by MemLimitBytes. When the in-memory queue is full,
// entries overflow to an append-only file of ordinary wire frames under
// Dir; with no Dir configured the oldest entry not on lease is shed
// instead and counted — the spool never blocks a Put and never sheds
// silently. Disk entries survive a crash: NewSpool rescans the overflow
// file, so reports spooled by a previous agent process are replayed after
// restart.
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

	f         *os.File
	diskCount int
	readOff   int64
	writeOff  int64

	spooled    uint64
	dropped    uint64
	overflowed uint64
}

// SpoolOptions configures a Spool.
type SpoolOptions struct {
	// MemLimitBytes bounds the in-memory queue by summed report bytes
	// (default 8 MiB).
	MemLimitBytes int
	// Dir, when set, enables disk overflow into Dir/spool.dat.
	Dir string
	// DiskLimitBytes bounds the overflow file (default 256 MiB). Beyond
	// it — or when Dir is empty — the oldest queued entry is shed.
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
	// Overflowed is entries that went through the disk file.
	Overflowed uint64
	// Depth is entries currently queued (memory + disk).
	Depth int
}

// spoolFile is the overflow file name under SpoolOptions.Dir.
const spoolFile = "spool.dat"

// NewSpool opens a spool. With a Dir configured, entries left over by a
// previous process are recovered and will be replayed first.
func NewSpool(opt SpoolOptions) (*Spool, error) {
	opt.fill()
	s := &Spool{opt: opt, notify: make(chan struct{})}
	if opt.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("agent: spool dir: %w", err)
	}
	path := filepath.Join(opt.Dir, spoolFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("agent: spool file: %w", err)
	}
	s.f = f
	// Crash recovery: count the intact frames already on disk; anything
	// after the first torn frame (a crash mid-append) is truncated away.
	br := bufio.NewReader(io.NewSectionReader(f, 0, 1<<62))
	var off int64
	for {
		m, err := wire.ReadMessage(br)
		if err != nil {
			break
		}
		off += frameSize(m)
		s.diskCount++
	}
	s.writeOff = off
	s.spooled = uint64(s.diskCount) // recovered entries are on this process's ledger too
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("agent: spool truncate: %w", err)
	}
	return s, nil
}

// frameSize is the on-disk size of one wire frame: four length-prefixed
// parts (branch, hostname, report, signature).
func frameSize(m *wire.Message) int64 {
	return int64(16 + len(m.Branch) + len(m.Hostname) + len(m.Report) + len(m.Signature))
}

// memCost approximates an entry's memory footprint for the MemLimitBytes
// bound.
func memCost(m *wire.Message) int {
	return int(frameSize(m)) + 48
}

// Put accepts one entry. It never blocks: when both the memory bound and
// the disk bound are exhausted, the oldest queued entry not on lease is
// shed (newest data is the monitoring signal worth keeping) and counted in
// Dropped.
func (s *Spool) Put(m *wire.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("agent: spool closed")
	}
	s.spooled++
	// Disk entries queued behind the memory segment force new entries to
	// disk too, or FIFO order would break.
	if s.f != nil && (s.diskCount > 0 || s.memBytes+memCost(m) > s.opt.MemLimitBytes) {
		if err := s.appendDiskLocked(m); err == nil {
			s.overflowed++
			s.signalLocked()
			return nil
		}
		if s.diskCount > 0 {
			// Disk full with older entries still on disk: inserting m into
			// memory would jump it ahead of them. Shed m instead — FIFO
			// order is an acceptance guarantee, newest-at-any-cost is not.
			s.dropped++
			return nil
		}
		// Disk unwritable but empty: fall through to the memory shed path.
	}
	for s.memBytes+memCost(m) > s.opt.MemLimitBytes && len(s.mem) > s.leased {
		// Shed the entry behind the leased prefix: slide the prefix over
		// its slot, then step the queue past the vacated head.
		s.memBytes -= memCost(s.mem[s.leased])
		copy(s.mem[1:s.leased+1], s.mem[:s.leased])
		s.mem = s.mem[1:]
		s.dropped++
	}
	if s.memBytes+memCost(m) > s.opt.MemLimitBytes && s.f == nil {
		// No room left to make: the entry is larger than the whole bound,
		// or everything held is on lease. With no disk to take it, shed it.
		s.dropped++
		return nil
	}
	s.mem = append(s.mem, m)
	s.memBytes += memCost(m)
	s.signalLocked()
	return nil
}

func (s *Spool) appendDiskLocked(m *wire.Message) error {
	if s.writeOff-s.readOff+frameSize(m) > s.opt.DiskLimitBytes {
		return fmt.Errorf("agent: spool disk bound reached")
	}
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, m); err != nil {
		return err
	}
	if _, err := s.f.WriteAt(buf.Bytes(), s.writeOff); err != nil {
		return err
	}
	s.writeOff += int64(buf.Len())
	s.diskCount++
	return nil
}

// signalLocked wakes every waiting Peek and watch.
func (s *Spool) signalLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// refillLocked moves entries from the disk tail into the memory segment,
// keeping the memory bound.
func (s *Spool) refillLocked() {
	if s.diskCount == 0 || s.f == nil {
		return
	}
	br := bufio.NewReader(io.NewSectionReader(s.f, s.readOff, s.writeOff-s.readOff))
	for s.diskCount > 0 {
		m, err := wire.ReadMessage(br)
		if err != nil {
			// Unreadable tail: abandon it rather than stall the queue.
			s.dropped += uint64(s.diskCount)
			s.diskCount = 0
			break
		}
		s.readOff += frameSize(m)
		s.diskCount--
		s.mem = append(s.mem, m)
		s.memBytes += memCost(m)
		if s.memBytes > s.opt.MemLimitBytes/2 {
			break
		}
	}
	if s.diskCount == 0 {
		// Fully consumed: reclaim the file.
		s.readOff, s.writeOff = 0, 0
		s.f.Truncate(0)
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
	}
	s.mem = append(s.mem[:0:0], s.mem[n:]...)
	if len(s.mem) == 0 && s.diskCount == 0 && s.f != nil && s.writeOff > 0 {
		s.readOff, s.writeOff = 0, 0
		s.f.Truncate(0)
	}
	s.signalLocked()
}

// Depth returns how many entries are queued (memory + disk).
func (s *Spool) Depth() int {
	depth, _ := s.watch()
	return depth
}

// watch returns the depth and a channel closed at the next Put, PopN or
// Close, so a caller can wait for the depth to change without polling.
func (s *Spool) watch() (int, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) + s.diskCount, s.notify
}

// Stats returns a snapshot of the spool counters.
func (s *Spool) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpoolStats{
		Spooled:    s.spooled,
		Dropped:    s.dropped,
		Overflowed: s.overflowed,
		Depth:      len(s.mem) + s.diskCount,
	}
}

// Close stops accepting entries and releases the overflow file. With a
// Dir configured, everything still queued — the in-memory head, leased
// entries included — is persisted for the next process to recover, so a
// clean shutdown with an unreachable controller loses nothing. Memory-only
// spools lose their queue at exit, which is why shutdown paths drain the
// delivery loop before closing.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.signalLocked()
	if s.f == nil {
		return nil
	}
	err := s.persistLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// persistLocked rewrites the overflow file so the in-memory head (older
// than every disk entry) survives the process: memory frames first, then
// the live disk segment, built in a temp file and renamed into place so a
// crash mid-persist leaves the old file intact.
func (s *Spool) persistLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	path := filepath.Join(s.opt.Dir, spoolFile)
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	err = func() error {
		for _, m := range s.mem {
			if err := wire.WriteMessage(bw, m); err != nil {
				return err
			}
		}
		if s.writeOff > s.readOff {
			if _, err := io.Copy(bw, io.NewSectionReader(s.f, s.readOff, s.writeOff-s.readOff)); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return tmp.Close()
	}()
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
