// Package journal is the one append-only log behind both custody points:
// the agent's delivery spool and the depot's write-ahead log. Records are
// framed, checksummed and kept in numbered segments:
//
//	<dir>/wal-<seq %016d>.log    u32 len | u32 crc32c(payload) | payload, repeated
//
// Open scans every segment in order and hands each record to the caller.
// A torn or corrupt frame at the end of the final segment is what a crash
// mid-append leaves, so it is truncated away; the same damage in an earlier
// segment is an error naming the file, because records written after it
// exist and skipping them would reorder history. Appends then go to a fresh
// segment one past the newest. Appends are not fsynced: surviving a process
// kill needs only the page cache. Files written whole — a Rewrite's
// segment, the depot's checkpoint and snapshot — go through
// AtomicWriteFile.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

const (
	// maxRecord caps one record's payload.
	maxRecord = 64 << 20
	// segmentSize rotates the journal once a segment reaches it.
	segmentSize = 64 << 20
	// keepBuf is the largest frame buffer an append keeps for the next.
	keepBuf = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Pos is a frame's place in the journal: its segment and byte offset.
type Pos struct {
	Seq uint64
	Off int64
}

// Journal is an opened journal. It is safe for concurrent use.
type Journal struct {
	dir string

	mu    sync.Mutex
	f     *os.File // current segment, nil once closed
	seq   uint64   // current segment's sequence
	size  int64    // current segment's length
	first uint64   // lowest segment not yet trimmed
	buf   []byte   // frame under assembly
}

// segmentName is the file name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016d.log", seq)
}

// Open scans the journal in dir (created if absent), calling replay with
// every record in order and the position of its frame; rec is valid only
// until replay returns. A replay error aborts the open.
func Open(dir string, replay func(rec []byte, at Pos) error) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir) // sorted by name: by sequence
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%016d.log", &seq); err == nil && e.Name() == segmentName(seq) {
			seqs = append(seqs, seq)
		}
	}
	j := &Journal{dir: dir, first: 1}
	for i, seq := range seqs {
		err := j.scan(seq, 0, i == len(seqs)-1, func(rec []byte, at, _ int64) error {
			return replay(rec, Pos{seq, at})
		})
		if err != nil {
			return nil, err
		}
	}
	if len(seqs) > 0 {
		j.first, j.seq = seqs[0], seqs[len(seqs)-1]
	}
	if err := j.startSegmentLocked(j.seq + 1); err != nil {
		return nil, err
	}
	return j, nil
}

// scan reads segment seq's frames from offset off, calling fn with each
// record, its offset and the offset past it, until fn fails. A
// torn or corrupt frame is an error naming the segment unless the segment
// is final: then it is the tail a crash mid-append leaves, and is cut off
// so the damage cannot be read as data once later segments exist.
func (j *Journal) scan(seq uint64, off int64, final bool, fn func(rec []byte, at, next int64) error) error {
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(seq)), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(io.NewSectionReader(f, off, 1<<62), 64<<10)
	var head [8]byte
	var rec []byte
	for {
		if _, err := io.ReadFull(br, head[:]); err == io.EOF {
			return nil
		} else if err != nil {
			break
		}
		n := int(binary.BigEndian.Uint32(head[0:]))
		if n == 0 || n > maxRecord {
			break
		}
		// The length is a claim: the buffer grows only as the bytes arrive.
		rec = rec[:0]
		for len(rec) < n {
			chunk, _ := br.Peek(min(n-len(rec), br.Size()))
			if len(chunk) == 0 {
				break
			}
			rec = append(rec, chunk...)
			br.Discard(len(chunk))
		}
		if len(rec) < n || crc32.Checksum(rec, crcTable) != binary.BigEndian.Uint32(head[4:]) {
			break
		}
		if err := fn(rec, off, off+8+int64(n)); err != nil {
			return err
		}
		off += 8 + int64(n)
	}
	if !final {
		return fmt.Errorf("journal: segment %s corrupt at offset %d", segmentName(seq), off)
	}
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return f.Sync()
}

// appendFrame appends rec's frame to dst.
func appendFrame(dst, rec []byte) ([]byte, error) {
	if len(rec) == 0 || len(rec) > maxRecord {
		return dst, fmt.Errorf("journal: record of %d bytes (want 1 to %d)", len(rec), maxRecord)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(rec, crcTable))
	return append(dst, rec...), nil
}

func (j *Journal) startSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f, j.seq, j.size = f, seq, 0
	return nil
}

// Append writes one record and returns the position of its frame. The
// frame goes out in one write, so a crash can tear only the tail; a failed
// write is cut back off, so the next append does not land behind damage.
func (j *Journal) Append(rec []byte) (Pos, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return Pos{}, fmt.Errorf("journal: closed")
	}
	var err error
	if j.buf, err = appendFrame(j.buf[:0], rec); err != nil {
		return Pos{}, err
	}
	at := Pos{j.seq, j.size}
	_, err = j.f.WriteAt(j.buf, j.size)
	if cap(j.buf) > keepBuf {
		j.buf = nil
	}
	if err != nil {
		// Best effort: should the cut fail too, the bytes past size are
		// overwritten by the next append or cut as a torn tail on open.
		_ = j.f.Truncate(j.size)
		return Pos{}, fmt.Errorf("journal: append: %w", err)
	}
	if j.size += int64(8 + len(rec)); j.size >= segmentSize {
		// The record is written: a segment that fails to open now is
		// retried on the next append, not reported as this one's failure.
		_ = j.startSegmentLocked(j.seq + 1)
	}
	return at, nil
}

// Rotate starts the next segment unless the current one is empty, and
// returns the current sequence: every record appended before the call
// lives in a segment below it.
func (j *Journal) Rotate() (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("journal: closed")
	}
	if j.size == 0 {
		return j.seq, nil
	}
	if err := j.startSegmentLocked(j.seq + 1); err != nil {
		return 0, err
	}
	return j.seq, nil
}

// Trim deletes every segment below seq (never the current one).
func (j *Journal) Trim(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trimLocked(min(seq, j.seq))
}

func (j *Journal) trimLocked(seq uint64) error {
	for ; j.first < seq; j.first++ {
		if err := os.Remove(filepath.Join(j.dir, segmentName(j.first))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// ReadFrom calls fn with each record from position at onward, in order,
// and the position just past it, until the records run out or fn fails,
// and returns fn's error; rec is valid only until fn returns, and a
// damaged frame is an error. It takes no lock, so fn may hand records to
// Rewrite's put, and it must not race an Append.
func (j *Journal) ReadFrom(at Pos, fn func(rec []byte, next Pos) error) error {
	for seq, off := at.Seq, at.Off; ; seq, off = seq+1, 0 {
		err := j.scan(seq, off, false, func(rec []byte, _, next int64) error {
			return fn(rec, Pos{seq, next})
		})
		if errors.Is(err, fs.ErrNotExist) && seq > at.Seq {
			return nil // past the newest segment
		}
		if err != nil {
			return err
		}
	}
}

// Rewrite replaces the journal's content with the records fill hands to
// put, in order. They are framed into the segment after the current one
// through AtomicWriteFile; appends move to a fresh segment past it, and
// every older segment is deleted. A crash before the rename leaves the old
// content, one after it at worst both, old ahead of new: records may be
// read twice, never lost. Appends wait for the rewrite, so fill may read
// the journal with ReadFrom but must call no other method.
func (j *Journal) Rewrite(fill func(put func(rec []byte) error) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	seq := j.seq + 1
	err := AtomicWriteFile(filepath.Join(j.dir, segmentName(seq)), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		var frame []byte
		err := fill(func(rec []byte) (err error) {
			if frame, err = appendFrame(frame[:0], rec); err == nil {
				_, err = bw.Write(frame)
			}
			return err
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	if err := j.startSegmentLocked(seq + 1); err != nil {
		return err
	}
	return j.trimLocked(seq)
}

// Close closes the current segment. Appends after it fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// AtomicWriteFile writes a file so readers see either the previous
// content or the complete new content, never a torn mix: the bytes land
// in a same-directory temp file, are fsynced, and rename into place, and
// the directory is fsynced so the rename itself persists.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	tmp = nil
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}
