package depot

import (
	"bufio"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"inca/internal/branch"
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
// Recovery (OpenDisk) inverts it: load the checkpoint, finish any
// interrupted truncation (delete segments below N), replay the surviving
// segments through the normal store path — idempotent, so records that
// also made the checkpoint apply harmlessly — truncating a torn tail in
// the final segment, then start a fresh segment for new appends. Archive
// files are not opened during recovery; they fault in lazily on first use.

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
	d.walDir = filepath.Join(do.Dir, "wal")
	// A missing checkpoint is a fresh depot. The depot has no WAL attached
	// yet, so the restored policies are not logged again.
	var firstSeq uint64
	f, err := os.Open(filepath.Join(do.Dir, checkpointFile))
	if err == nil {
		firstSeq, err = d.restoreImage(f)
		f.Close()
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("depot: checkpoint: %w", err)
	}
	if err := os.MkdirAll(d.walDir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: wal dir: %w", err)
	}
	// A crash between checkpoint write and truncation leaves stale
	// segments; finishing the delete here keeps replay starting at the
	// checkpoint's horizon.
	if err := deleteSegmentsBelow(d.walDir, firstSeq); err != nil {
		return nil, fmt.Errorf("depot: wal truncation: %w", err)
	}
	if err := d.replayWAL(); err != nil {
		return nil, err
	}
	w, err := openWAL(d.walDir)
	if err != nil {
		return nil, err
	}
	d.wal = w
	return d, nil
}

// DiskBacked reports whether the depot runs on the disk engine.
func (d *Depot) DiskBacked() bool { return d.wal != nil }

// replayWAL applies every surviving log record through the normal (non-
// logging) store path. The depot has no WAL attached yet, so nothing is
// re-appended.
func (d *Depot) replayWAL() error {
	seqs, err := walSegments(d.walDir)
	if err != nil {
		return fmt.Errorf("depot: wal scan: %w", err)
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		path := filepath.Join(d.walDir, walSegmentName(seq))
		if err := replaySegment(path, final, d.applyWALRecord); err != nil {
			return err
		}
	}
	return nil
}

// applyWALRecord replays one frame. Per-record failures are tolerated: a
// record that fails to apply now also failed (and was not acknowledged)
// when it was first appended, and policy re-uploads collide with the
// checkpoint's copy by design.
func (d *Depot) applyWALRecord(rec walRecord) error {
	switch rec.kind {
	case walFrameReport:
		id, report, err := decodeReportFrame(rec.payload)
		if err != nil {
			return err
		}
		d.storeApply(id, report)
	case walFramePolicy:
		var xp xmlPolicyEntry
		if err := xml.Unmarshal(rec.payload, &xp); err != nil {
			return fmt.Errorf("depot: wal policy frame: %w", err)
		}
		p, err := snapshotPolicy(xp)
		if err != nil {
			return err
		}
		d.addPolicyApply(p)
	case walFrameManual:
		id, name, at, value, err := decodeManualFrame(rec.payload)
		if err != nil {
			return err
		}
		d.archiveUpdateApply(id, name, at, value)
	default:
		// Unknown kinds are skipped for forward compatibility (the CRC
		// already vouched for the bytes).
	}
	return nil
}

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
	newSeq, err := d.wal.rotate()
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
	return deleteSegmentsBelow(d.walDir, newSeq)
}

// writeCheckpoint writes cache + policies + WAL horizon atomically.
func (d *Depot) writeCheckpoint(firstSeq uint64) error {
	return AtomicWriteFile(filepath.Join(d.dataDir, checkpointFile), func(w io.Writer) error {
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

// AtomicWriteFile writes a file so readers see either the previous
// content or the complete new content, never a torn mix: the bytes land
// in a same-directory temp file, are fsynced, and rename into place.
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
	// Persist the rename itself.
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// --- WAL frame payloads ---

func encodeReportFrame(id branch.ID, report []byte) []byte {
	b := id.String()
	buf := make([]byte, 0, 2+len(b)+len(report))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	buf = append(buf, b...)
	return append(buf, report...)
}

func decodeReportFrame(p []byte) (branch.ID, []byte, error) {
	if len(p) < 2 {
		return branch.ID{}, nil, fmt.Errorf("depot: short report frame")
	}
	n := int(binary.BigEndian.Uint16(p))
	if len(p) < 2+n {
		return branch.ID{}, nil, fmt.Errorf("depot: short report frame")
	}
	id, err := branch.Parse(string(p[2 : 2+n]))
	if err != nil {
		return branch.ID{}, nil, fmt.Errorf("depot: report frame branch: %w", err)
	}
	return id, p[2+n:], nil
}

func encodeManualFrame(id branch.ID, policy string, at time.Time, value float64) []byte {
	b := id.String()
	buf := make([]byte, 0, 2+len(b)+2+len(policy)+16)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	buf = append(buf, b...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(policy)))
	buf = append(buf, policy...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(at.UnixNano()))
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(value))
}

func decodeManualFrame(p []byte) (branch.ID, string, time.Time, float64, error) {
	fail := func(msg string) (branch.ID, string, time.Time, float64, error) {
		return branch.ID{}, "", time.Time{}, 0, fmt.Errorf("depot: %s", msg)
	}
	if len(p) < 2 {
		return fail("short manual frame")
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < n+2 {
		return fail("short manual frame")
	}
	id, err := branch.Parse(string(p[:n]))
	if err != nil {
		return fail("manual frame branch: " + err.Error())
	}
	p = p[n:]
	m := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) != m+16 {
		return fail("short manual frame")
	}
	name := string(p[:m])
	p = p[m:]
	at := time.Unix(0, int64(binary.BigEndian.Uint64(p))).UTC()
	value := math.Float64frombits(binary.BigEndian.Uint64(p[8:]))
	return id, name, at, value, nil
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
