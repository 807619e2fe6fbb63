package depot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The depot write-ahead log: every mutation that must survive a crash —
// stored reports, uploaded policies, manual archive updates — is appended
// as a length- and CRC-framed record before it is applied. Recovery replays
// the log through the normal store path, which is idempotent (the cache
// replaces same-branch documents; archives drop non-newer samples), and
// truncates a torn tail at the last whole frame, the same scan-and-truncate
// discipline agent.Spool proved on the report path.
//
// The log is segmented (wal-<seq>.log): a checkpoint rotates to a fresh
// segment, makes everything older durable elsewhere, then deletes the
// segments below the new sequence — so log size is bounded by write volume
// between checkpoints, not uptime.
//
// Appends are not fsynced: surviving process death needs only the page
// cache, and machine-crash durability is the checkpoint's job (the window
// is the checkpoint interval, a bounded and documented trade).

const (
	walFrameReport = 1 // u16 branch len | branch | report bytes
	walFramePolicy = 2 // policy XML (snapshot schema)
	walFrameManual = 3 // u16 branch len | branch | u16 name len | name | i64 nanos | f64 value

	walMaxFrame = 64 << 20 // sanity cap on a single frame
	// walSegmentSize rotates the log when a segment reaches this size.
	walSegmentSize = 64 << 20
)

// walRecord is one decoded frame.
type walRecord struct {
	kind    byte
	payload []byte
}

// wal is the append side. One goroutine-safe writer per depot.
type wal struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	seq  uint64
	size int64
}

func walSegmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016d.log", seq)
}

// walSegments lists the segment sequences present in dir, ascending.
func walSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openWAL starts appending to a fresh segment numbered one past the
// newest on disk. Recovery reads the old segments first; starting fresh
// (rather than appending to a possibly-truncated tail) keeps the append
// path free of repair states.
func openWAL(dir string) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: wal dir: %w", err)
	}
	seqs, err := walSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("depot: wal scan: %w", err)
	}
	next := uint64(1)
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	w := &wal{dir: dir}
	if err := w.startSegmentLocked(next); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wal) startSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, walSegmentName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("depot: wal segment: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.seq, w.size = f, seq, 0
	return nil
}

// append frames one record. The frame is assembled in one buffer and
// written with a single call so a crash can tear only the tail, never
// interleave two records.
func (w *wal) append(kind byte, payload []byte) error {
	if len(payload) > walMaxFrame {
		return fmt.Errorf("depot: wal record of %d bytes exceeds frame cap", len(payload))
	}
	buf := make([]byte, 8+1+len(payload))
	binary.BigEndian.PutUint32(buf[0:], uint32(1+len(payload)))
	buf[8] = kind
	copy(buf[9:], payload)
	binary.BigEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTableWAL))
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("depot: wal closed")
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("depot: wal append: %w", err)
	}
	w.size += int64(len(buf))
	if w.size >= walSegmentSize {
		return w.startSegmentLocked(w.seq + 1)
	}
	return nil
}

// rotate closes the current segment and opens the next, returning the new
// sequence: every record appended before the call lives in a segment
// below it. The checkpoint protocol hinges on that boundary.
func (w *wal) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("depot: wal closed")
	}
	if err := w.startSegmentLocked(w.seq + 1); err != nil {
		return 0, err
	}
	return w.seq, nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// deleteSegmentsBelow removes every segment with sequence < seq (the
// checkpoint's truncation step; also run at open to finish an interrupted
// truncation).
func deleteSegmentsBelow(dir string, seq uint64) error {
	seqs, err := walSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s >= seq {
			break
		}
		if err := os.Remove(filepath.Join(dir, walSegmentName(s))); err != nil {
			return err
		}
	}
	return nil
}

var crcTableWAL = crc32.MakeTable(crc32.Castagnoli)

// replaySegment scans one segment, invoking fn per whole frame. A torn or
// corrupt tail is truncated in place when final is set (only the last
// segment can legitimately be torn — an earlier one went through rotate,
// which only ever leaves whole frames behind); in an earlier segment the
// same damage is an error, because records acked after it exist and
// silently dropping the rest of the segment would reorder history.
func replaySegment(path string, final bool, fn func(walRecord) error) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var (
		offset int64 // last known-good frame boundary
		header [8]byte
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			if err == io.EOF {
				return nil // clean end
			}
			break // torn length/crc header
		}
		n := binary.BigEndian.Uint32(header[0:])
		crc := binary.BigEndian.Uint32(header[4:])
		if n == 0 || n > walMaxFrame {
			break
		}
		// Fresh buffer per frame: the store path may retain report bytes.
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn body
		}
		if crc32.Checksum(payload, crcTableWAL) != crc {
			break // torn or bit-rotted frame
		}
		if err := fn(walRecord{kind: payload[0], payload: payload[1:]}); err != nil {
			return err
		}
		offset += int64(8 + n)
	}
	if !final {
		return fmt.Errorf("depot: wal segment %s corrupt mid-sequence at offset %d", filepath.Base(path), offset)
	}
	// Drop the torn tail so the damage cannot be re-read as data.
	if err := f.Truncate(offset); err != nil {
		return fmt.Errorf("depot: wal truncate: %w", err)
	}
	return f.Sync()
}
