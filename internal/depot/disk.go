package depot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"inca/internal/journal"
)

// The disk-backed depot: paged archive files plus a write-ahead log, with
// a checkpoint protocol tying them together.
//
//	data/
//	  archives/<escaped key>.rrd   paged round-robin files (rrd/file)
//	  wal/wal-<seq>.log            framed mutation log, segment per rotation
//	  checkpoint                   cache + policies + first live WAL segment
//
// Checkpoint protocol (Checkpoint):
//  1. rotate the WAL under the store barrier — every record appended so
//     far now lives in a segment below the new sequence N
//  2. sync the archive files (open handles fsync; evicted ones already did)
//  3. write the checkpoint — cache dump, policies, and N — to a temp file,
//     fsync, rename over the old checkpoint
//  4. delete WAL segments below N
//
// Recovery (OpenDisk) inverts it: load the checkpoint, replay the WAL
// from segment N through the normal store path — idempotent, so records
// that also made the checkpoint apply harmlessly — while the journal
// truncates a torn tail in the final segment and starts a fresh one for
// new appends, then finish any interrupted truncation (delete segments
// below N). Archive files are not opened during recovery; they fault in
// lazily on first use.

// DiskOptions configure OpenDisk.
type DiskOptions struct {
	// Options are the regular depot options (metrics).
	Options
	// Dir is the storage directory, created if absent.
	Dir string
	// Cache overrides the cache implementation (nil for the default, as in
	// New). A checkpoint's cache image is restored into it, one Update per
	// stored report.
	Cache Cache
	// OpenFiles caps the archive handle LRU (default 64).
	OpenFiles int
}

const checkpointFile = "checkpoint"

// OpenDisk opens (or initializes) a disk-backed depot: archives as paged
// files behind a bounded handle LRU, mutations write-ahead logged, state
// recovered from checkpoint + WAL replay.
func OpenDisk(do DiskOptions) (*Depot, error) {
	if do.Dir == "" {
		return nil, fmt.Errorf("depot: disk depot needs a directory")
	}
	if err := os.MkdirAll(do.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: data dir: %w", err)
	}
	store, err := newDiskStore(filepath.Join(do.Dir, "archives"), do.OpenFiles)
	if err != nil {
		return nil, err
	}
	d := newDepot(do.Cache, do.Options, store)
	d.dataDir = do.Dir
	// A missing checkpoint is a fresh depot. The depot has no WAL attached
	// yet, so neither the restored policies nor the replayed records are
	// logged again.
	var firstSeq uint64
	f, err := os.Open(filepath.Join(do.Dir, checkpointFile))
	if err == nil {
		firstSeq, err = d.restoreImage(f)
		f.Close()
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("depot: checkpoint: %w", err)
	}
	// Segments below the checkpoint's horizon are left only by a crash
	// between checkpoint write and truncation: they are folded in already,
	// so replay skips them and the trim finishes the delete.
	w, err := journal.Open(filepath.Join(do.Dir, "wal"), func(rec []byte, at journal.Pos) error {
		if at.Seq < firstSeq {
			return nil
		}
		return d.applyWALRecord(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("depot: wal: %w", err)
	}
	if err := w.Trim(firstSeq); err != nil {
		w.Close()
		return nil, fmt.Errorf("depot: wal truncation: %w", err)
	}
	d.wal = w
	return d, nil
}

// DiskBacked reports whether the depot runs on the disk engine.
func (d *Depot) DiskBacked() bool { return d.wal != nil }

// Checkpoint makes everything acknowledged so far durable without the WAL
// and truncates the log. Concurrent stores are paused only for the
// rotation itself.
func (d *Depot) Checkpoint() error {
	if d.wal == nil {
		return fmt.Errorf("depot: Checkpoint on a memory depot (snapshot instead)")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	d.storeBarrier.Lock()
	newSeq, err := d.wal.Rotate()
	d.storeBarrier.Unlock()
	if err != nil {
		return err
	}
	// Everything below newSeq is already applied (every store consolidates
	// before it returns) and is made durable (sync + checkpoint) before any
	// segment is deleted — the order that makes a crash at any point
	// recoverable.
	if err := d.archives.sync(); err != nil {
		return fmt.Errorf("depot: checkpoint archive sync: %w", err)
	}
	if err := d.writeCheckpoint(newSeq); err != nil {
		return err
	}
	return d.wal.Trim(newSeq)
}

// writeCheckpoint writes cache + policies + WAL horizon atomically.
func (d *Depot) writeCheckpoint(firstSeq uint64) error {
	return journal.AtomicWriteFile(filepath.Join(d.dataDir, checkpointFile), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		if err := d.writeImageHead(bw); err != nil {
			return err
		}
		if err := writeSection(bw, "WSEQ", binary.BigEndian.AppendUint64(nil, firstSeq)); err != nil {
			return err
		}
		return bw.Flush()
	})
}

func marshalPolicyEntry(p Policy) xmlPolicyEntry {
	e := xmlPolicyEntry{
		Name: p.Name, Prefix: p.Prefix.String(), Path: p.Path,
		Step: p.Archive.Step.String(), Granularity: p.Archive.Granularity,
		History: p.Archive.History.String(), ManualOnly: p.ManualOnly,
	}
	if p.Archive.Heartbeat > 0 {
		e.Heartbeat = p.Archive.Heartbeat.String()
	}
	return e
}
