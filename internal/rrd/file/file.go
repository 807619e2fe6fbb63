// Package file is the paged on-disk round-robin database format — the
// storage engine behind `inca-server -storage=disk` and the answer to the
// paper's deferred "improved data archival methods": instead of holding
// every series in RAM and rewriting a monolithic snapshot, one update
// touches O(archives) pages in place via pwrite, the layout real rrdtool
// files use.
//
// Layout (all integers big-endian, offsets page-aligned):
//
//	┌──────────────────────────────────────────────────────────────┐
//	│ static header   magic INCARRDF, version, page size, step,    │
//	│ (page 0..)      created, DS definitions, RRA definitions,    │
//	│                 crc32c — written once at Create              │
//	├──────────────────────────────────────────────────────────────┤
//	│ state slot A    seq · len · crc32c · mutable state: last     │
//	├─────────────────┤ update, PDP accumulators, per-RRA cursors  │
//	│ state slot B    (newest/filled/lastEnd/CDP accs/last-known)  │
//	├──────────────────────────────────────────────────────────────┤
//	│ RRA 0 rows      rows × data-sources × float64, a circular    │
//	├─────────────────┤ buffer updated in place; never-written     │
//	│ RRA 1 rows …    rows read as unknown (sparse file)           │
//	└──────────────────────────────────────────────────────────────┘
//
// Crash safety: an update writes its consolidated rows first, then the
// row-less state into the *alternate* slot (dual-slot, sequence-numbered,
// crc-guarded). A write torn by a crash leaves the other slot valid, and
// the state is what gives rows meaning — rows ahead of the recovered
// cursor are simply rewritten when the depot replays its WAL. Rows are
// written only at consolidation boundaries, so a reopened archive never
// serves a torn row: the recovered cursor cannot point past the last
// state write that followed it.
//
// Memory: an open archive holds only the row-less state (a few hundred
// bytes per data source), never the rings — Fetch and snapshot export
// read rows back with pread. RSS is bounded by how many archives are
// open, not by how many exist or how long their history is.
package file

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"inca/internal/rrd"
)

// Magic identifies a paged archive file (version byte separate).
const Magic = "INCARRDF"

const (
	formatVersion = 1
	pageSize      = 4096
	// slotHeaderLen is seq u64 + payload len u32 + crc32 u32.
	slotHeaderLen = 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// geometry locates every region of the file. It is fully determined by
// the static definitions, so Open recomputes it instead of trusting
// stored offsets.
type geometry struct {
	nds, nrra  int
	rowBytes   int64 // nds * 8
	stateOff   int64
	slotLen    int   // header + payload, unpadded
	slotStride int64 // page-aligned slot size
	ringOff    []int64
	size       int64
}

func pageAlign(n int64) int64 {
	if r := n % pageSize; r != 0 {
		return n + pageSize - r
	}
	return n
}

// statePayloadLen is the marshalled size of the mutable row-less state.
func statePayloadLen(nds, nrra int) int {
	// lastUpdate + updates, then per-DS lastRaw/pdpSum/pdpKnown.
	n := 16 + nds*24
	// Per RRA: newest, filled, pdpCount, lastEnd, then per-DS CDP
	// accumulator (6 words) and last-known value + time.
	n += nrra * (32 + nds*48 + nds*16)
	return n
}

func computeGeometry(staticLen int, nds int, rows []int) geometry {
	g := geometry{nds: nds, nrra: len(rows), rowBytes: int64(nds) * 8}
	g.stateOff = pageAlign(int64(staticLen))
	g.slotLen = slotHeaderLen + statePayloadLen(nds, len(rows))
	g.slotStride = pageAlign(int64(g.slotLen))
	off := g.stateOff + 2*g.slotStride
	g.ringOff = make([]int64, len(rows))
	for i, r := range rows {
		g.ringOff[i] = off
		off += pageAlign(int64(r) * g.rowBytes)
	}
	g.size = off
	return g
}

// fileRings adapts the ring regions to rrd.RingStore. It is called under
// the owning rrd.DB's lock, so the scratch buffer needs no locking.
type fileRings struct {
	f    *os.File
	geom *geometry
	buf  []byte
}

func (r *fileRings) WriteRow(rra, row int, values []float64) error {
	if rra < 0 || rra >= r.geom.nrra || len(values) != r.geom.nds {
		return fmt.Errorf("rrdfile: write row %d/%d arity", rra, row)
	}
	for i, v := range values {
		binary.BigEndian.PutUint64(r.buf[i*8:], math.Float64bits(v))
	}
	_, err := r.f.WriteAt(r.buf[:r.geom.rowBytes], r.geom.ringOff[rra]+int64(row)*r.geom.rowBytes)
	return err
}

func (r *fileRings) ReadRow(rra, row int, dst []float64) error {
	if rra < 0 || rra >= r.geom.nrra || len(dst) != r.geom.nds {
		return fmt.Errorf("rrdfile: read row %d/%d arity", rra, row)
	}
	if _, err := r.f.ReadAt(r.buf[:r.geom.rowBytes], r.geom.ringOff[rra]+int64(row)*r.geom.rowBytes); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(r.buf[i*8:]))
	}
	return nil
}

// DB is one disk-backed round-robin database. All methods are safe for
// concurrent use. The rows live only in the file; the row-less state is
// mirrored in memory and written through after every applied update.
type DB struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	db    *rrd.DB
	rings *fileRings
	geom  geometry
	seq   uint64
	buf   []byte // state marshal scratch, len == slotLen
}

// Create builds a new archive file at path. It fails if the file exists.
func Create(path string, start time.Time, step time.Duration, ds []rrd.DS, rras []rrd.RRA) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rrdfile: create: %w", err)
	}
	d, err := createOver(f, path, start, step, ds, rras)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return d, nil
}

// CreateFromPolicy is Create with the archive geometry a depot policy
// implies — exactly the layout rrd.NewFromPolicy builds in memory.
func CreateFromPolicy(path string, start time.Time, dsName string, p rrd.ArchivalPolicy) (*DB, error) {
	step, ds, rras, err := rrd.PolicyLayout(dsName, p)
	if err != nil {
		return nil, err
	}
	return Create(path, start, step, ds, rras)
}

func createOver(f *os.File, path string, start time.Time, step time.Duration, ds []rrd.DS, rras []rrd.RRA) (*DB, error) {
	hdr, err := marshalStaticHeader(step, start, ds, rras)
	if err != nil {
		return nil, err
	}
	rows := make([]int, len(rras))
	for i, r := range rras {
		rows[i] = r.Rows
	}
	d := &DB{f: f, path: path, geom: computeGeometry(len(hdr), len(ds), rows)}
	d.rings = &fileRings{f: f, geom: &d.geom, buf: make([]byte, d.geom.rowBytes)}
	d.buf = make([]byte, d.geom.slotLen)
	d.db, err = rrd.NewExternal(start, step, ds, rras, d.rings)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("rrdfile: write header: %w", err)
	}
	// Reserve the full extent sparsely: ring pages cost disk only once a
	// row lands on them.
	if err := f.Truncate(d.geom.size); err != nil {
		return nil, fmt.Errorf("rrdfile: reserve: %w", err)
	}
	if err := d.writeStateLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// Open loads an existing archive file. Only the static header and the
// newest valid state slot are read; rows stay on disk until fetched.
func Open(path string) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("rrdfile: open: %w", err)
	}
	d, err := openOver(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func openOver(f *os.File, path string) (*DB, error) {
	step, created, ds, rras, staticLen, err := readStaticHeader(f)
	if err != nil {
		return nil, err
	}
	rows := make([]int, len(rras))
	for i, r := range rras {
		rows[i] = r.Rows
	}
	d := &DB{f: f, path: path, geom: computeGeometry(staticLen, len(ds), rows)}
	d.rings = &fileRings{f: f, geom: &d.geom, buf: make([]byte, d.geom.rowBytes)}
	d.buf = make([]byte, d.geom.slotLen)
	st, seq, err := d.readState(step, created, ds, rras)
	if err != nil {
		return nil, err
	}
	d.seq = seq
	d.db, err = rrd.NewFromState(st, d.rings)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Path returns the backing file path.
func (d *DB) Path() string { return d.path }

// Step returns the PDP step.
func (d *DB) Step() time.Duration { return d.db.Step() }

// DSNames returns the data source names in declaration order.
func (d *DB) DSNames() []string { return d.db.DSNames() }

// Last returns the time of the most recent update.
func (d *DB) Last() time.Time { return d.db.Last() }

// Updates returns the number of successful updates applied.
func (d *DB) Updates() uint64 { return d.db.Updates() }

// LastValue mirrors rrd.DB.LastValue.
func (d *DB) LastValue(cf rrd.CF) float64 { return d.db.LastValue(cf) }

// LastKnown mirrors rrd.DB.LastKnown.
func (d *DB) LastKnown(cf rrd.CF) (float64, time.Time) { return d.db.LastKnown(cf) }

// LastValueDS mirrors rrd.DB.LastValueDS.
func (d *DB) LastValueDS(cf rrd.CF, ds int) float64 { return d.db.LastValueDS(cf, ds) }

// Fetch mirrors rrd.DB.Fetch; rows are read back with pread.
func (d *DB) Fetch(cf rrd.CF, start, end time.Time) (*rrd.Series, error) {
	return d.db.Fetch(cf, start, end)
}

// Update applies one timestamped sample: consolidated rows are written in
// place (O(archives) pages), then the row-less state lands in the
// alternate slot.
func (d *DB) Update(t time.Time, values ...float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.db.Update(t, values...); err != nil {
		return err
	}
	return d.writeStateLocked()
}

// Install is rrd.DB.Install over the file: src's rows are written in
// place, then its state lands in the alternate slot.
func (d *DB) Install(src *rrd.DB) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ok, err := d.db.Install(src)
	if !ok || err != nil {
		return ok, err
	}
	return true, d.writeStateLocked()
}

// WriteTo serializes the archive as the standard in-memory image
// (rrd.ReadDB reads it back) — byte-identical to what the same update
// sequence against an in-memory DB would produce, which is what keeps
// depot snapshots interchangeable across storage backends.
func (d *DB) WriteTo(w io.Writer) (int64, error) {
	return d.db.WriteTo(w)
}

// Sync forces the file to stable storage (checkpoint barrier).
func (d *DB) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeStateLocked(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close flushes the state, forces the file to stable storage, and releases
// the handle. The fsync makes an eviction a durability point: once a
// depot's LRU closes an archive, a later checkpoint only has to sync the
// handles still open.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.writeStateLocked()
	if serr := d.f.Sync(); err == nil {
		err = serr
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeStateLocked marshals the row-less state into the alternate slot.
func (d *DB) writeStateLocked() error {
	st := d.db.State()
	seq := d.seq + 1
	buf := d.buf
	binary.BigEndian.PutUint64(buf[0:], seq)
	payload := marshalState(buf[slotHeaderLen:slotHeaderLen], st)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[12:], crc32.Checksum(payload, crcTable))
	off := d.geom.stateOff + int64(seq%2)*d.geom.slotStride
	if _, err := d.f.WriteAt(buf[:slotHeaderLen+len(payload)], off); err != nil {
		return fmt.Errorf("rrdfile: write state: %w", err)
	}
	d.seq = seq
	return nil
}

// readState loads both slots and restores the newest valid one.
func (d *DB) readState(step time.Duration, created time.Time, ds []rrd.DS, rras []rrd.RRA) (rrd.DBState, uint64, error) {
	var best []byte
	var bestSeq uint64
	found := false
	for slot := 0; slot < 2; slot++ {
		buf := make([]byte, d.geom.slotLen)
		if _, err := d.f.ReadAt(buf, d.geom.stateOff+int64(slot)*d.geom.slotStride); err != nil {
			continue
		}
		seq := binary.BigEndian.Uint64(buf[0:])
		plen := binary.BigEndian.Uint32(buf[8:])
		crc := binary.BigEndian.Uint32(buf[12:])
		if int(plen) != d.geom.slotLen-slotHeaderLen {
			continue
		}
		payload := buf[slotHeaderLen : slotHeaderLen+int(plen)]
		if crc32.Checksum(payload, crcTable) != crc {
			continue
		}
		if seq%2 != uint64(slot) {
			continue
		}
		if !found || seq > bestSeq {
			best, bestSeq, found = payload, seq, true
		}
	}
	if !found {
		return rrd.DBState{}, 0, fmt.Errorf("rrdfile: %s: no valid state slot", d.path)
	}
	st, err := unmarshalState(best, step, created, ds, rras)
	return st, bestSeq, err
}

// --- static header ---

func marshalStaticHeader(step time.Duration, created time.Time, ds []rrd.DS, rras []rrd.RRA) ([]byte, error) {
	if len(ds) == 0 || len(rras) == 0 {
		return nil, fmt.Errorf("rrdfile: empty definitions")
	}
	var buf []byte
	buf = append(buf, Magic...)
	buf = binary.BigEndian.AppendUint32(buf, formatVersion)
	buf = binary.BigEndian.AppendUint32(buf, pageSize)
	buf = binary.BigEndian.AppendUint64(buf, uint64(step))
	buf = binary.BigEndian.AppendUint64(buf, uint64(created.UnixNano()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ds)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rras)))
	for _, d := range ds {
		if len(d.Name) > 255 {
			return nil, fmt.Errorf("rrdfile: data source name %q too long", d.Name)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.Name)))
		buf = append(buf, d.Name...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(d.Type))
		buf = binary.BigEndian.AppendUint64(buf, uint64(d.Heartbeat))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.Min))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.Max))
	}
	for _, r := range rras {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.CF))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.XFF))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Steps))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Rows))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	if len(buf) > pageSize {
		// The header region may span pages for very wide databases; the
		// geometry page-aligns the state region after it either way.
		_ = buf
	}
	return buf, nil
}

// staticReader is a bounds-checked big-endian cursor.
type staticReader struct {
	buf []byte
	off int
	err error
}

func (r *staticReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *staticReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *staticReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *staticReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *staticReader) f64() float64 { return math.Float64frombits(r.u64()) }

func readStaticHeader(f *os.File) (time.Duration, time.Time, []rrd.DS, []rrd.RRA, int, error) {
	fail := func(err error) (time.Duration, time.Time, []rrd.DS, []rrd.RRA, int, error) {
		return 0, time.Time{}, nil, nil, 0, err
	}
	// The header is rarely longer than a page; read generously and trim.
	raw := make([]byte, 4*pageSize)
	n, err := f.ReadAt(raw, 0)
	if err != nil && err != io.EOF {
		return fail(fmt.Errorf("rrdfile: read header: %w", err))
	}
	raw = raw[:n]
	if len(raw) < len(Magic) || string(raw[:len(Magic)]) != Magic {
		return fail(fmt.Errorf("rrdfile: bad magic"))
	}
	r := &staticReader{buf: raw, off: len(Magic)}
	version := r.u32()
	page := r.u32()
	step := time.Duration(r.u64())
	created := time.Unix(0, int64(r.u64())).UTC()
	nds := int(r.u32())
	nrra := int(r.u32())
	if r.err != nil {
		return fail(fmt.Errorf("rrdfile: truncated header"))
	}
	if version != formatVersion {
		return fail(fmt.Errorf("rrdfile: unsupported version %d", version))
	}
	if page != pageSize {
		return fail(fmt.Errorf("rrdfile: page size %d, want %d", page, pageSize))
	}
	if nds <= 0 || nds > 1<<12 || nrra <= 0 || nrra > 1<<12 {
		return fail(fmt.Errorf("rrdfile: implausible arity %d×%d", nds, nrra))
	}
	ds := make([]rrd.DS, nds)
	for i := range ds {
		nameLen := int(r.u16())
		ds[i].Name = string(r.bytes(nameLen))
		ds[i].Type = rrd.DSType(r.u32())
		ds[i].Heartbeat = time.Duration(r.u64())
		ds[i].Min = r.f64()
		ds[i].Max = r.f64()
	}
	rras := make([]rrd.RRA, nrra)
	for i := range rras {
		rras[i].CF = rrd.CF(r.u32())
		rras[i].XFF = r.f64()
		rras[i].Steps = int(r.u32())
		rras[i].Rows = int(r.u32())
		if r.err == nil && (rras[i].Rows <= 0 || rras[i].Rows > 1<<28 || rras[i].Steps <= 0) {
			return fail(fmt.Errorf("rrdfile: implausible archive geometry %d×%d", rras[i].Steps, rras[i].Rows))
		}
	}
	bodyEnd := r.off
	crc := r.u32()
	if r.err != nil {
		return fail(fmt.Errorf("rrdfile: truncated header"))
	}
	if crc32.Checksum(raw[:bodyEnd], crcTable) != crc {
		return fail(fmt.Errorf("rrdfile: header checksum mismatch"))
	}
	return step, created, ds, rras, r.off, nil
}

// --- mutable state payload ---

func marshalState(dst []byte, st rrd.DBState) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(st.LastUpdate.UnixNano()))
	dst = binary.BigEndian.AppendUint64(dst, st.Updates)
	for i := range st.DS {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.LastRaw[i]))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.PDPSum[i]))
		dst = binary.BigEndian.AppendUint64(dst, uint64(st.PDPKnown[i]))
	}
	for _, r := range st.RRAs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.Newest)))
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.Filled)))
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.PDPCount)))
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.LastEnd.UnixNano()))
		for _, a := range r.Acc {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Sum))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Min))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Max))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Last))
			dst = binary.BigEndian.AppendUint64(dst, uint64(int64(a.Known)))
			dst = binary.BigEndian.AppendUint64(dst, uint64(int64(a.Unknown)))
		}
		for i := range r.LastKnown {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.LastKnown[i]))
			dst = binary.BigEndian.AppendUint64(dst, uint64(r.LastKnownAt[i].UnixNano()))
		}
	}
	return dst
}

func unmarshalState(payload []byte, step time.Duration, created time.Time, ds []rrd.DS, rras []rrd.RRA) (rrd.DBState, error) {
	r := &staticReader{buf: payload}
	st := rrd.DBState{
		Step:    step,
		Created: created,
		DS:      ds,
	}
	st.LastUpdate = time.Unix(0, int64(r.u64())).UTC()
	st.Updates = r.u64()
	st.LastRaw = make([]float64, len(ds))
	st.PDPSum = make([]float64, len(ds))
	st.PDPKnown = make([]time.Duration, len(ds))
	for i := range ds {
		st.LastRaw[i] = r.f64()
		st.PDPSum[i] = r.f64()
		st.PDPKnown[i] = time.Duration(r.u64())
	}
	st.RRAs = make([]rrd.RRAState, len(rras))
	for i, def := range rras {
		rs := &st.RRAs[i]
		rs.Def = def
		rs.Newest = int(int64(r.u64()))
		rs.Filled = int(int64(r.u64()))
		rs.PDPCount = int(int64(r.u64()))
		rs.LastEnd = time.Unix(0, int64(r.u64())).UTC()
		rs.Acc = make([]rrd.CDPAcc, len(ds))
		for j := range rs.Acc {
			rs.Acc[j].Sum = r.f64()
			rs.Acc[j].Min = r.f64()
			rs.Acc[j].Max = r.f64()
			rs.Acc[j].Last = r.f64()
			rs.Acc[j].Known = int(int64(r.u64()))
			rs.Acc[j].Unknown = int(int64(r.u64()))
		}
		rs.LastKnown = make([]float64, len(ds))
		rs.LastKnownAt = make([]time.Time, len(ds))
		for j := range ds {
			rs.LastKnown[j] = r.f64()
			rs.LastKnownAt[j] = time.Unix(0, int64(r.u64())).UTC()
		}
	}
	if r.err != nil {
		return rrd.DBState{}, fmt.Errorf("rrdfile: truncated state payload")
	}
	return st, nil
}
