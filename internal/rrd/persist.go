package rrd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Durable archives — the paper's future-work "improved data archival
// methods". A DB serializes to a compact binary image (magic "INCARRD",
// version 1) capturing every data source, archive ring, and in-progress
// consolidation, so a depot restart loses nothing.

const persistMagic = "INCARRD1"

type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) u64(v uint64) {
	if b.err != nil {
		return
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	_, b.err = b.w.Write(buf[:])
}

func (b *binWriter) i64(v int64)         { b.u64(uint64(v)) }
func (b *binWriter) f64(v float64)       { b.u64(math.Float64bits(v)) }
func (b *binWriter) dur(v time.Duration) { b.i64(int64(v)) }
func (b *binWriter) time(v time.Time)    { b.i64(v.UnixNano()) }
func (b *binWriter) str(s string) {
	b.u64(uint64(len(s)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.WriteString(s)
}

type binReader struct {
	r   *bufio.Reader
	err error
}

func (b *binReader) u64() uint64 {
	if b.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(b.r, buf[:]); err != nil {
		b.err = err
		return 0
	}
	return binary.BigEndian.Uint64(buf[:])
}

func (b *binReader) i64() int64         { return int64(b.u64()) }
func (b *binReader) f64() float64       { return math.Float64frombits(b.u64()) }
func (b *binReader) dur() time.Duration { return time.Duration(b.i64()) }
func (b *binReader) time() time.Time    { return time.Unix(0, b.i64()).UTC() }
func (b *binReader) str() string {
	n := b.u64()
	if b.err != nil {
		return ""
	}
	if n > 1<<20 {
		b.err = fmt.Errorf("rrd: implausible string length %d", n)
		return ""
	}
	// Copied, not read into make(n): memory grows only as bytes arrive.
	var sb strings.Builder
	if _, err := io.CopyN(&sb, b.r, int64(n)); err != nil {
		b.err = err
		return ""
	}
	return sb.String()
}

// f64s reads total values into one slice. The slice grows by doubling as
// the image supplies bytes and ends at exactly total, so a header that
// claims more rows than the image holds costs what the image holds, not
// what it claims.
func (b *binReader) f64s(total int) []float64 {
	var chunk [4096]byte
	out := make([]float64, 0, min(total, len(chunk)/8))
	for len(out) < total && b.err == nil {
		n := min(total-len(out), len(chunk)/8)
		if _, err := io.ReadFull(b.r, chunk[:n*8]); err != nil {
			b.err = err
			return nil
		}
		if len(out)+n > cap(out) {
			out = append(make([]float64, 0, min(total, 2*cap(out))), out...)
		}
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(binary.BigEndian.Uint64(chunk[i*8:])))
		}
	}
	return out
}

// WriteTo serializes the database. It implements io.WriterTo.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cw := &countingWriter{w: w}
	b := &binWriter{w: bufio.NewWriter(cw)}
	b.str(persistMagic)
	b.dur(db.step)
	b.time(db.created)
	b.time(db.lastUpdate)
	b.u64(db.updates)
	b.u64(uint64(len(db.ds)))
	for i, d := range db.ds {
		b.str(d.Name)
		b.u64(uint64(d.Type))
		b.dur(d.Heartbeat)
		b.f64(d.Min)
		b.f64(d.Max)
		b.f64(db.lastRaw[i])
		b.f64(db.pdpSum[i])
		b.dur(db.pdpKnown[i])
	}
	b.u64(uint64(len(db.rras)))
	rowBuf := make([]float64, len(db.ds))
	for ri, r := range db.rras {
		b.u64(uint64(r.def.CF))
		b.f64(r.def.XFF)
		b.u64(uint64(r.def.Steps))
		b.u64(uint64(r.def.Rows))
		b.i64(int64(r.newest))
		b.i64(int64(r.filled))
		b.time(r.lastEnd)
		b.u64(uint64(r.pdpCount))
		for _, a := range r.acc {
			b.f64(a.sum)
			b.f64(a.min)
			b.f64(a.max)
			b.f64(a.last)
			b.u64(uint64(a.known))
			b.u64(uint64(a.unknown))
		}
		if db.rings == nil {
			for _, v := range r.ring {
				b.f64(v)
			}
			continue
		}
		for j := 0; j < r.def.Rows; j++ {
			if j < r.filled {
				// External rings: rows are written sequentially from index 0,
				// so exactly the first `filled` indices have ever been stored
				// (after a wrap filled == Rows and every index is live).
				if err := db.rings.ReadRow(ri, j, rowBuf); err != nil && b.err == nil {
					b.err = err
				}
			} else {
				// Never-written rows are unknown, as the in-memory rings
				// initialize them — the images stay byte-identical.
				for k := range rowBuf {
					rowBuf[k] = math.NaN()
				}
			}
			for _, v := range rowBuf {
				b.f64(v)
			}
		}
	}
	if b.err == nil {
		b.err = b.w.Flush()
	}
	return cw.n, b.err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadDB deserializes a database written by WriteTo. The image is
// untrusted: reading stops at the first error, and nothing is allocated on
// the strength of a count the image has not yet backed with bytes.
func ReadDB(r io.Reader) (*DB, error) {
	b := &binReader{r: bufio.NewReader(r)}
	if magic := b.str(); magic != persistMagic {
		if b.err != nil {
			return nil, fmt.Errorf("rrd: read header: %w", b.err)
		}
		return nil, fmt.Errorf("rrd: bad magic %q", magic)
	}
	db := &DB{}
	db.step = b.dur()
	db.created = b.time()
	db.lastUpdate = b.time()
	db.updates = b.u64()
	nds := b.u64()
	if b.err == nil && db.step <= 0 {
		return nil, fmt.Errorf("rrd: non-positive step %v", db.step)
	}
	if b.err == nil && (nds == 0 || nds > 1<<16) {
		return nil, fmt.Errorf("rrd: implausible data source count %d", nds)
	}
	for i := uint64(0); i < nds && b.err == nil; i++ {
		var d DS
		d.Name = b.str()
		d.Type = DSType(b.u64())
		d.Heartbeat = b.dur()
		d.Min = b.f64()
		d.Max = b.f64()
		db.ds = append(db.ds, d)
		db.lastRaw = append(db.lastRaw, b.f64())
		db.pdpSum = append(db.pdpSum, b.f64())
		db.pdpKnown = append(db.pdpKnown, b.dur())
	}
	n := len(db.ds) // nds, unless the image ended first
	nrra := b.u64()
	if b.err == nil && (nrra == 0 || nrra > 1<<16) {
		return nil, fmt.Errorf("rrd: implausible archive count %d", nrra)
	}
	for i := uint64(0); i < nrra && b.err == nil; i++ {
		st := &rraState{}
		st.def.CF = CF(b.u64())
		st.def.XFF = b.f64()
		st.def.Steps = int(b.u64())
		st.def.Rows = int(b.u64())
		st.newest = int(b.i64())
		st.filled = int(b.i64())
		st.lastEnd = b.time()
		st.pdpCount = int(b.u64())
		if b.err != nil {
			break
		}
		if st.def.Rows <= 0 || st.def.Rows > MaxRows || st.def.Steps <= 0 {
			return nil, fmt.Errorf("rrd: implausible archive geometry %d×%d", st.def.Steps, st.def.Rows)
		}
		if st.newest < -1 || st.newest >= st.def.Rows || st.filled < 0 || st.filled > st.def.Rows {
			return nil, fmt.Errorf("rrd: archive cursor %d/%d outside its %d rows", st.newest, st.filled, st.def.Rows)
		}
		st.acc = make([]cdpAcc, n)
		for j := range st.acc {
			st.acc[j].sum = b.f64()
			st.acc[j].min = b.f64()
			st.acc[j].max = b.f64()
			st.acc[j].last = b.f64()
			st.acc[j].known = int(b.u64())
			st.acc[j].unknown = int(b.u64())
		}
		st.ring = b.f64s(st.def.Rows * n)
		if b.err != nil {
			break
		}
		// The last-known tracking behind LastValue is derived state, not
		// part of the image: reconstruct it with one newest-first ring
		// scan so the on-disk format stays at version 1.
		st.initLastKnown(n)
		res := db.step * time.Duration(st.def.Steps)
		missing := n
		for j := 0; j < st.filled && missing > 0; j++ {
			idx := ((st.newest-j)%st.def.Rows + st.def.Rows) % st.def.Rows
			at := st.lastEnd.Add(-time.Duration(j) * res)
			for k, v := range st.ring[idx*n : (idx+1)*n] {
				if math.IsNaN(st.lastKnown[k]) && !math.IsNaN(v) {
					st.lastKnown[k], st.lastKnownAt[k] = v, at
					missing--
				}
			}
		}
		db.rras = append(db.rras, st)
	}
	if b.err != nil {
		return nil, fmt.Errorf("rrd: truncated image: %w", b.err)
	}
	return db, nil
}
