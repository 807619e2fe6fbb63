package rrd

import (
	"fmt"
	"math"
	"slices"
)

// Install replaces db's history with src's whole: rows, consolidation
// state and last update, under db's lock. It installs when db holds no
// update yet or its last update is not later than src's, and the two
// archives have one geometry (step, data sources and archive definitions);
// otherwise db is left as it was and Install reports false. Rows are not
// merged: two archives created at different times consolidate in
// different phases, so their rows do not line up in general.
//
// db keeps its creation time, which a paged archive writes once, in its
// static header. Its update count becomes src's, or, when db held updates
// of its own, the larger of src's and its own plus one, so a validator
// built on the count never names two histories. src must be an in-memory
// archive (ReadDB's) that nothing else uses during the call; db writes its
// rows through its RingStore when it has one.
func (db *DB) Install(src *DB) (bool, error) {
	if src.rings != nil {
		return false, fmt.Errorf("rrd: install source must hold its rows in memory")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.updates > 0 && db.lastUpdate.After(src.lastUpdate) || !db.sameGeometry(src) {
		return false, nil
	}
	n := len(db.ds)
	// Rows first, then the state that gives them meaning, the order an
	// update writes a paged archive in.
	for i, r := range db.rras {
		s := src.rras[i]
		if db.rings == nil {
			copy(r.ring, s.ring)
			continue
		}
		for row := 0; row < r.def.Rows; row++ {
			if err := db.rings.WriteRow(i, row, s.ring[row*n:(row+1)*n]); err != nil {
				return false, err
			}
		}
	}
	for i, r := range db.rras {
		s := src.rras[i]
		r.newest, r.filled, r.lastEnd, r.pdpCount = s.newest, s.filled, s.lastEnd, s.pdpCount
		copy(r.acc, s.acc)
		copy(r.lastKnown, s.lastKnown)
		copy(r.lastKnownAt, s.lastKnownAt)
	}
	copy(db.lastRaw, src.lastRaw)
	copy(db.pdpSum, src.pdpSum)
	copy(db.pdpKnown, src.pdpKnown)
	db.lastUpdate = src.lastUpdate
	if db.updates > 0 {
		db.updates = max(src.updates, db.updates+1)
	} else {
		db.updates = src.updates
	}
	return true, nil
}

// sameGeometry reports whether src has db's step, data sources and archive
// definitions. Called with db.mu held.
func (db *DB) sameGeometry(src *DB) bool {
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return db.step == src.step &&
		slices.EqualFunc(db.ds, src.ds, func(a, b DS) bool {
			return a.Name == b.Name && a.Type == b.Type && a.Heartbeat == b.Heartbeat && sameFloat(a.Min, b.Min) && sameFloat(a.Max, b.Max)
		}) &&
		slices.EqualFunc(db.rras, src.rras, func(a, b *rraState) bool {
			return a.def.CF == b.def.CF && a.def.Steps == b.def.Steps && a.def.Rows == b.def.Rows && sameFloat(a.def.XFF, b.def.XFF) &&
				len(b.ring) == b.def.Rows*len(src.ds)
		})
}
