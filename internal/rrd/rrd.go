// Package rrd is a from-scratch round-robin database in the style of
// RRDTool, which the paper's depot uses to archive numerical data (Section
// 3.2.2): fixed-step primary data points (PDPs) derived from timestamped
// updates, consolidated into round-robin archives (RRAs) by AVERAGE / MIN /
// MAX / LAST functions, with a heartbeat for staleness and an xff threshold
// controlling how many unknown inputs a consolidated point tolerates.
//
// An Inca archival policy ("granularity of archiving (e.g., every fifth
// measurement) and the length of history to keep") maps onto an RRA with
// Steps = granularity and Rows = history/granularity.
package rrd

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// CF is a consolidation function.
type CF int

// Consolidation functions supported by RRAs.
const (
	Average CF = iota
	Min
	Max
	Last
)

// String returns the RRDTool-style name of the consolidation function.
func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Last:
		return "LAST"
	default:
		return fmt.Sprintf("CF(%d)", int(c))
	}
}

// ParseCF reads a consolidation function's name in any case; the empty
// name is AVERAGE.
func ParseCF(s string) (CF, error) {
	switch strings.ToUpper(s) {
	case "", "AVERAGE":
		return Average, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "LAST":
		return Last, nil
	default:
		return 0, fmt.Errorf("unknown consolidation function %q", s)
	}
}

// DSType describes how raw update values convert to a rate/value.
type DSType int

// Data source types.
const (
	// Gauge stores the value as supplied (temperatures, bandwidth
	// estimates, pass percentages).
	Gauge DSType = iota
	// Counter stores the per-second rate of an ever-increasing counter;
	// a decrease marks the interval unknown (counter reset).
	Counter
	// Derive is Counter that permits decreases (signed rate).
	Derive
	// Absolute divides each supplied value by the interval length (counts
	// since last update).
	Absolute
)

// String returns the RRDTool-style name of the data source type.
func (d DSType) String() string {
	switch d {
	case Gauge:
		return "GAUGE"
	case Counter:
		return "COUNTER"
	case Derive:
		return "DERIVE"
	case Absolute:
		return "ABSOLUTE"
	default:
		return fmt.Sprintf("DSType(%d)", int(d))
	}
}

// DS declares one data source.
type DS struct {
	Name string
	Type DSType
	// Heartbeat is the maximum silence between updates before the interval
	// is treated as unknown.
	Heartbeat time.Duration
	// Min and Max clamp validity; use NaN for unbounded.
	Min, Max float64
}

// RRA declares one round-robin archive.
type RRA struct {
	CF CF
	// XFF is the maximum fraction of unknown PDPs a consolidated point may
	// absorb and still be known (0 ≤ XFF < 1).
	XFF float64
	// Steps is how many PDPs consolidate into one row.
	Steps int
	// Rows is the archive length.
	Rows int
}

// rraState is an RRA plus its ring buffer and in-progress consolidation.
type rraState struct {
	def RRA
	// ring is the whole archive in one pointer-free allocation, row i at
	// [i*nds:(i+1)*nds], so the collector never scans it and an archive
	// costs the same handful of heap objects whatever Rows is. nil when an
	// external RingStore holds the rows.
	ring []float64
	// newest is the index of the most recently written row; -1 when empty.
	newest int
	filled int
	// end of the most recently completed consolidation window
	lastEnd time.Time
	// in-progress CDP accumulation
	acc      []cdpAcc
	pdpCount int
	// lastKnown/lastKnownAt track, per data source, the most recent known
	// (non-NaN) consolidated value and the end of its window, so LastValue
	// is O(archives) instead of a Fetch plus backward scan.
	lastKnown   []float64
	lastKnownAt []time.Time
}

type cdpAcc struct {
	sum     float64
	min     float64
	max     float64
	last    float64
	known   int
	unknown int
}

// RingStore holds archive rows outside the DB — the hook the paged
// on-disk format (rrd/file) plugs in so consolidated rows go to pwrites
// instead of in-memory rings. Row indices are positions in the archive's
// circular buffer; rra is the archive's index in declaration order. A row
// index that has never been written may be read only after a write to it
// (the DB reads only rows inside the filled window). Implementations are
// called under the DB's lock and need no locking of their own.
type RingStore interface {
	// WriteRow stores one consolidated row (len = data source count). The
	// slice is the DB's scratch: it must not be kept after the call.
	WriteRow(rra, row int, values []float64) error
	// ReadRow loads one row into dst (len = data source count).
	ReadRow(rra, row int, dst []float64) error
}

// DB is a round-robin database. Rows live in memory by default, or in an
// external RingStore (NewExternal) for disk-backed archives. All methods
// are safe for concurrent use.
type DB struct {
	mu         sync.Mutex
	step       time.Duration
	ds         []DS
	rras       []*rraState
	rings      RingStore // nil = in-memory rings
	created    time.Time
	lastUpdate time.Time
	lastRaw    []float64 // previous raw input per DS (Counter/Derive)
	// PDP accumulation for the step window containing lastUpdate.
	pdpSum   []float64       // per DS: sum of rate*seconds over known subintervals
	pdpKnown []time.Duration // per DS: known time accumulated in the current window
	updates  uint64
	// scratch is Update's working memory (rates, the finalized PDP and the
	// consolidated row, len(ds) each), so a steady-state update allocates
	// nothing. Held under mu.
	scratch []float64
}

// New creates a database. start becomes the initial "last update" instant;
// the first real update must be after it.
func New(start time.Time, step time.Duration, ds []DS, rras []RRA) (*DB, error) {
	return newDB(start, step, ds, rras, nil)
}

// NewExternal creates a database whose consolidated rows live in the given
// RingStore instead of in-memory rings — the constructor the paged on-disk
// format uses. Consolidation state stays in memory (persist it via State);
// only the rows, the bulk of an archive, go through the store.
func NewExternal(start time.Time, step time.Duration, ds []DS, rras []RRA, rings RingStore) (*DB, error) {
	if rings == nil {
		return nil, fmt.Errorf("rrd: NewExternal requires a ring store")
	}
	return newDB(start, step, ds, rras, rings)
}

func newDB(start time.Time, step time.Duration, ds []DS, rras []RRA, rings RingStore) (*DB, error) {
	if step <= 0 {
		return nil, fmt.Errorf("rrd: non-positive step %v", step)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("rrd: no data sources")
	}
	names := make(map[string]bool)
	for i, d := range ds {
		if d.Name == "" {
			return nil, fmt.Errorf("rrd: data source %d has no name", i)
		}
		if names[d.Name] {
			return nil, fmt.Errorf("rrd: duplicate data source %q", d.Name)
		}
		names[d.Name] = true
		if d.Heartbeat <= 0 {
			return nil, fmt.Errorf("rrd: data source %q has non-positive heartbeat", d.Name)
		}
	}
	if len(rras) == 0 {
		return nil, fmt.Errorf("rrd: no archives")
	}
	db := &DB{
		step:       step,
		ds:         append([]DS(nil), ds...),
		rings:      rings,
		created:    start,
		lastUpdate: start,
		lastRaw:    make([]float64, len(ds)),
		pdpSum:     make([]float64, len(ds)),
		pdpKnown:   make([]time.Duration, len(ds)),
	}
	for i := range db.lastRaw {
		db.lastRaw[i] = math.NaN()
	}
	base := start.Truncate(step)
	for _, r := range rras {
		if r.Steps <= 0 || r.Rows <= 0 {
			return nil, fmt.Errorf("rrd: archive %s has non-positive steps/rows", r.CF)
		}
		if r.XFF < 0 || r.XFF >= 1 {
			return nil, fmt.Errorf("rrd: archive %s xff %g out of [0,1)", r.CF, r.XFF)
		}
		st := &rraState{def: r, newest: -1, lastEnd: base, acc: make([]cdpAcc, len(ds))}
		if rings == nil {
			st.ring = make([]float64, r.Rows*len(ds))
			for i := range st.ring {
				st.ring[i] = math.NaN()
			}
		}
		st.initLastKnown(len(ds))
		resetAcc(st.acc)
		db.rras = append(db.rras, st)
	}
	return db, nil
}

func resetAcc(acc []cdpAcc) {
	for i := range acc {
		acc[i] = cdpAcc{min: math.Inf(1), max: math.Inf(-1), last: math.NaN()}
	}
}

// Step returns the PDP step.
func (db *DB) Step() time.Duration { return db.step }

// Last returns the time of the most recent update.
func (db *DB) Last() time.Time {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastUpdate
}

// Updates returns the number of successful updates applied.
func (db *DB) Updates() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.updates
}

// DSNames returns the data source names in declaration order.
func (db *DB) DSNames() []string {
	out := make([]string, len(db.ds))
	for i, d := range db.ds {
		out[i] = d.Name
	}
	return out
}

// Update records raw values for every data source at time t. Updates must
// be strictly newer than the previous one. Use math.NaN for an unknown
// value.
func (db *DB) Update(t time.Time, values ...float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(values) != len(db.ds) {
		return fmt.Errorf("rrd: update has %d values, want %d", len(values), len(db.ds))
	}
	if !t.After(db.lastUpdate) {
		return fmt.Errorf("rrd: update at %v not after last update %v", t, db.lastUpdate)
	}
	rates, pdp := db.rates(t, values)

	// Distribute the interval across step windows, finalizing each PDP the
	// interval completes. Within one Update the rate is constant, so each
	// segment contributes rate*segmentSeconds to its window's accumulator,
	// and every whole window inside the interval gets the same PDP: the
	// rate, or unknown past the heartbeat. Those go to the archives in bulk
	// (pushPDPs), so a gap of centuries costs each archive at most its
	// Rows×Steps pushes, not one per step of the gap.
	windowEnd := db.lastUpdate.Truncate(db.step).Add(db.step)
	if t.Before(windowEnd) {
		db.accumulate(rates, t.Sub(db.lastUpdate))
	} else {
		db.accumulate(rates, windowEnd.Sub(db.lastUpdate))
		db.finalizePDP(pdp)
		for ri := range db.rras {
			if err := db.pushPDP(ri, windowEnd, pdp); err != nil {
				return err
			}
		}
		last := t.Truncate(db.step) // the end of the last whole window
		if last.After(windowEnd) {
			db.accumulate(rates, db.step)
			db.finalizePDP(pdp)
			// A gap past time.Duration's range (292 years) is pushed in
			// runs that fit it.
			for from := windowEnd; from.Before(last); {
				n := int64(last.Sub(from) / db.step)
				for ri := range db.rras {
					if err := db.pushPDPs(ri, from, n, pdp); err != nil {
						return err
					}
				}
				from = from.Add(time.Duration(n) * db.step)
			}
		}
		if t.After(last) {
			db.accumulate(rates, t.Sub(last))
		}
	}
	db.lastUpdate = t
	db.updates++
	return nil
}

// rates converts an update's raw inputs at t to per-DS rates/values by DS
// type, remembering them as the previous raw inputs, and returns them with
// the scratch a finalized PDP goes in.
func (db *DB) rates(t time.Time, values []float64) (rates, pdp []float64) {
	dt := t.Sub(db.lastUpdate)
	secs := dt.Seconds()

	n := len(db.ds)
	if db.scratch == nil {
		db.scratch = make([]float64, 3*n)
	}
	rates, pdp = db.scratch[:n], db.scratch[n:2*n]
	for i, d := range db.ds {
		v := values[i]
		switch d.Type {
		case Gauge:
			rates[i] = v
		case Counter:
			prev := db.lastRaw[i]
			if math.IsNaN(prev) || math.IsNaN(v) || v < prev {
				rates[i] = math.NaN()
			} else {
				rates[i] = (v - prev) / secs
			}
		case Derive:
			prev := db.lastRaw[i]
			if math.IsNaN(prev) || math.IsNaN(v) {
				rates[i] = math.NaN()
			} else {
				rates[i] = (v - prev) / secs
			}
		case Absolute:
			if math.IsNaN(v) {
				rates[i] = math.NaN()
			} else {
				rates[i] = v / secs
			}
		}
		if dt > d.Heartbeat {
			rates[i] = math.NaN()
		}
		if !math.IsNaN(rates[i]) {
			if !math.IsNaN(d.Min) && rates[i] < d.Min {
				rates[i] = math.NaN()
			}
			if !math.IsNaN(d.Max) && rates[i] > d.Max {
				rates[i] = math.NaN()
			}
		}
		db.lastRaw[i] = v
	}
	return rates, pdp
}

// accumulate adds a segment of the current step window at the given rates
// to the window's PDP accumulators.
func (db *DB) accumulate(rates []float64, seg time.Duration) {
	for i := range rates {
		if !math.IsNaN(rates[i]) {
			db.pdpSum[i] += rates[i] * seg.Seconds()
			db.pdpKnown[i] += seg
		}
	}
}

// finalizePDP closes the current step window into pdp and resets the
// accumulators: a data source must have been known for at least half the
// window (RRDTool's rule) or its PDP is unknown.
func (db *DB) finalizePDP(pdp []float64) {
	for i := range pdp {
		if db.pdpKnown[i]*2 < db.step {
			pdp[i] = math.NaN()
		} else {
			pdp[i] = db.pdpSum[i] / db.pdpKnown[i].Seconds()
		}
		db.pdpSum[i] = 0
		db.pdpKnown[i] = 0
	}
}

// pushPDPs folds n copies of one PDP, for the n windows ending one step
// apart after from, into archive ri, leaving it as n pushPDP calls would.
// Once the open consolidation is complete every further one yields the
// same row, so all but the last Rows of them, which the ring would
// overwrite, are skipped: the ring advances past them unwritten. The cost
// is bounded by the archive's Rows×Steps whatever n is.
func (db *DB) pushPDPs(ri int, from time.Time, n int64, pdp []float64) error {
	r := db.rras[ri]
	push := func(k int64) error { return db.pushPDP(ri, from.Add(time.Duration(k)*db.step), pdp) }
	k := int64(0)
	for ; k < n && r.pdpCount != 0; k++ {
		if err := push(k + 1); err != nil {
			return err
		}
	}
	rows, steps := int64(r.def.Rows), int64(r.def.Steps)
	if skip := (n-k)/steps - rows; skip > 0 {
		r.newest = int((int64(r.newest) + skip) % rows)
		r.filled = int(min(int64(r.filled)+skip, rows))
		k += skip * steps
	}
	for ; k < n; k++ {
		if err := push(k + 1); err != nil {
			return err
		}
	}
	return nil
}

// pushPDP folds one finalized PDP (for the window ending at end) into the
// archive's in-progress consolidation. A completed consolidation writes
// one row — in place in the in-memory ring, or from scratch through the
// external RingStore, whose write error (disk full, closed file) fails the
// update before any ring state advances.
func (db *DB) pushPDP(ri int, end time.Time, pdp []float64) error {
	r := db.rras[ri]
	for i, v := range pdp {
		a := &r.acc[i]
		if math.IsNaN(v) {
			a.unknown++
		} else {
			a.known++
			a.sum += v
			if v < a.min {
				a.min = v
			}
			if v > a.max {
				a.max = v
			}
			a.last = v
		}
	}
	r.pdpCount++
	if r.pdpCount < r.def.Steps {
		return nil
	}
	n := len(pdp)
	next := (r.newest + 1) % r.def.Rows
	row := db.scratch[2*n:]
	if db.rings == nil {
		row = r.ring[next*n : (next+1)*n]
	}
	for i := range row {
		a := &r.acc[i]
		if float64(a.unknown)/float64(r.def.Steps) > r.def.XFF || a.known == 0 {
			row[i] = math.NaN()
			continue
		}
		switch r.def.CF {
		case Average:
			row[i] = a.sum / float64(a.known)
		case Min:
			row[i] = a.min
		case Max:
			row[i] = a.max
		case Last:
			row[i] = a.last
		}
	}
	if db.rings != nil {
		if err := db.rings.WriteRow(ri, next, row); err != nil {
			return err
		}
	}
	r.newest = next
	if r.filled < r.def.Rows {
		r.filled++
	}
	r.lastEnd = end
	r.pdpCount = 0
	for i, v := range row {
		if !math.IsNaN(v) {
			r.lastKnown[i] = v
			r.lastKnownAt[i] = end
		}
	}
	resetAcc(r.acc)
	return nil
}

// initLastKnown allocates the last-known tracking for n data sources.
func (r *rraState) initLastKnown(n int) {
	r.lastKnown = make([]float64, n)
	r.lastKnownAt = make([]time.Time, n)
	for i := range r.lastKnown {
		r.lastKnown[i] = math.NaN()
	}
}

// LastValue returns the most recent known consolidated value for the
// first data source under the given consolidation function, or NaN when
// no known point has been consolidated yet. It is O(archives): each
// archive tracks its own most recent known row as rows are written, so
// no ring scan or series fetch happens here.
func (db *DB) LastValue(cf CF) float64 {
	v, _ := db.lastKnownDS(cf, 0)
	return v
}

// LastKnown returns LastValue's value together with the end of its
// consolidation window (zero when no known point exists). Callers use the
// time to bound how stale a "last" value may be.
func (db *DB) LastKnown(cf CF) (float64, time.Time) {
	return db.lastKnownDS(cf, 0)
}

// LastValueDS is LastValue for the data source at index ds.
func (db *DB) LastValueDS(cf CF, ds int) float64 {
	v, _ := db.lastKnownDS(cf, ds)
	return v
}

func (db *DB) lastKnownDS(cf CF, ds int) (float64, time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if ds < 0 || ds >= len(db.ds) {
		return math.NaN(), time.Time{}
	}
	best := math.NaN()
	var bestAt time.Time
	for _, r := range db.rras {
		if r.def.CF != cf || math.IsNaN(r.lastKnown[ds]) {
			continue
		}
		if bestAt.IsZero() || r.lastKnownAt[ds].After(bestAt) {
			best, bestAt = r.lastKnown[ds], r.lastKnownAt[ds]
		}
	}
	return best, bestAt
}

// Point is one fetched sample: the end of its consolidation window and one
// value per data source.
type Point struct {
	Time   time.Time
	Values []float64
}

// Series is the result of a Fetch.
type Series struct {
	CF         CF
	Resolution time.Duration
	DSNames    []string
	Points     []Point
}

// Values returns the series for the named data source.
func (s *Series) Values(ds string) ([]float64, error) {
	idx := -1
	for i, n := range s.DSNames {
		if n == ds {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("rrd: no data source %q", ds)
	}
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Values[idx]
	}
	return out, nil
}

// Fetch returns consolidated data with the given CF covering [start, end].
// It picks the finest-resolution archive with that CF whose retention
// reaches back to start (falling back to the longest-retention archive when
// none does, as RRDTool does).
func (db *DB) Fetch(cf CF, start, end time.Time) (*Series, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if end.Before(start) {
		return nil, fmt.Errorf("rrd: fetch end %v before start %v", end, start)
	}
	type candidate struct {
		idx int // index in db.rras, the external RingStore's archive key
		r   *rraState
	}
	var candidates []candidate
	for i, r := range db.rras {
		if r.def.CF == cf {
			candidates = append(candidates, candidate{i, r})
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("rrd: no archive with CF %s", cf)
	}
	// Sort by resolution fine→coarse.
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].r.def.Steps < candidates[j].r.def.Steps
	})
	chosenCand := candidates[len(candidates)-1]
	for _, c := range candidates {
		res := db.step * time.Duration(c.r.def.Steps)
		oldest := c.r.lastEnd.Add(-time.Duration(c.r.filled) * res)
		if !oldest.After(start) {
			chosenCand = c
			break
		}
	}
	chosen := chosenCand.r
	res := db.step * time.Duration(chosen.def.Steps)
	s := &Series{CF: cf, Resolution: res, DSNames: db.DSNames()}
	// Rows are evenly spaced, so the ones inside [start, end] are one run
	// [first, first+count) of the filled window, oldest first.
	rowTime := func(i int) time.Time {
		return chosen.lastEnd.Add(-time.Duration(chosen.filled-1-i) * res)
	}
	first := sort.Search(chosen.filled, func(i int) bool { return !rowTime(i).Before(start) })
	count := sort.Search(chosen.filled-first, func(i int) bool { return rowTime(first + i).After(end) })
	if count == 0 { // an empty archive included
		return s, nil
	}
	// One backing array holds every point's values; each point's slice is
	// capped so an append by the caller cannot reach its neighbour.
	n := len(db.ds)
	vals := make([]float64, count*n)
	s.Points = make([]Point, count)
	oldestIdx := (chosen.newest - chosen.filled + 1 + chosen.def.Rows*2) % chosen.def.Rows
	for k := range s.Points {
		idx := (oldestIdx + first + k) % chosen.def.Rows
		row := vals[k*n : (k+1)*n : (k+1)*n]
		if db.rings != nil {
			if err := db.rings.ReadRow(chosenCand.idx, idx, row); err != nil {
				return nil, err
			}
		} else {
			copy(row, chosen.ring[idx*n:(idx+1)*n])
		}
		s.Points[k] = Point{Time: rowTime(first + k), Values: row}
	}
	return s, nil
}
