package rrd

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// updateStepwise is Update as it was before whole windows went to the
// archives in bulk: it walks every step window of the interval and pushes
// each window's PDP on its own — the oracle for pushPDPs.
func updateStepwise(db *DB, t time.Time, values ...float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rates, pdp := db.rates(t, values)
	cursor := db.lastUpdate
	for {
		windowEnd := cursor.Truncate(db.step).Add(db.step)
		segEnd := windowEnd
		if t.Before(segEnd) {
			segEnd = t
		}
		db.accumulate(rates, segEnd.Sub(cursor))
		cursor = segEnd
		if cursor.Before(windowEnd) {
			break
		}
		db.finalizePDP(pdp)
		for ri := range db.rras {
			if err := db.pushPDP(ri, windowEnd, pdp); err != nil {
				return err
			}
		}
		if !cursor.Before(t) {
			break
		}
	}
	db.lastUpdate = t
	db.updates++
	return nil
}

// rowMap is a RingStore that keeps every row it is handed.
type rowMap map[[2]int][]float64

func (m rowMap) WriteRow(rra, row int, values []float64) error {
	m[[2]int{rra, row}] = append([]float64(nil), values...)
	return nil
}

func (m rowMap) ReadRow(rra, row int, dst []float64) error {
	copy(dst, m[[2]int{rra, row}])
	return nil
}

// TestBulkWindowsMatchStepwise: for random archives, data source types and
// heartbeats, and gaps from under a step to a few thousand steps, an
// update that pushes whole windows in bulk leaves the same image, and the
// same rows in an external ring store, as one that walks every window.
func TestBulkWindowsMatchStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		step := time.Minute
		var ds []DS
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			ds = append(ds, DS{
				Name: string(rune('a' + i)), Type: DSType(rng.Intn(4)),
				Heartbeat: time.Duration(1+rng.Intn(600)) * step,
				Min:       math.NaN(), Max: math.NaN(),
			})
		}
		var rras []RRA
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			rras = append(rras, RRA{
				CF: CF(rng.Intn(4)), XFF: rng.Float64() * 0.9,
				Steps: []int{1, 2, 3, 5, 7, 12}[rng.Intn(6)], Rows: []int{1, 2, 3, 8, 16}[rng.Intn(5)],
			})
		}
		start := t0.Add(time.Duration(rng.Intn(60)) * time.Second)
		bulkRows, stepRows := rowMap{}, rowMap{}
		bulk, err := New(start, step, ds, rras)
		if err != nil {
			t.Fatal(err)
		}
		stepwise, _ := New(start, step, ds, rras)
		bulkExt, _ := NewExternal(start, step, ds, rras, bulkRows)
		stepExt, _ := NewExternal(start, step, ds, rras, stepRows)
		at := start
		counter := 0.0
		for u := 0; u < 20; u++ {
			switch rng.Intn(4) {
			case 0: // inside a step
				at = at.Add(time.Duration(1+rng.Intn(59)) * time.Second)
			case 1: // onto a boundary
				at = at.Truncate(step).Add(time.Duration(1+rng.Intn(40)) * step)
			default: // up to a few thousand steps
				at = at.Add(time.Duration(rng.Int63n(int64(3000 * step))))
			}
			counter += float64(rng.Intn(1000))
			values := make([]float64, len(ds))
			for i := range values {
				values[i] = counter
				if rng.Intn(8) == 0 {
					values[i] = math.NaN()
				}
			}
			if err := bulk.Update(at, values...); err != nil {
				t.Fatal(err)
			}
			if err := bulkExt.Update(at, values...); err != nil {
				t.Fatal(err)
			}
			if err := updateStepwise(stepwise, at, values...); err != nil {
				t.Fatal(err)
			}
			if err := updateStepwise(stepExt, at, values...); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(image(t, bulk), image(t, stepwise)) {
				t.Fatalf("trial %d, update %d at %v: the bulk image differs from the stepwise one", trial, u, at)
			}
		}
		if len(bulkRows) != len(stepRows) {
			t.Fatalf("trial %d: %d external rows, stepwise %d", trial, len(bulkRows), len(stepRows))
		}
		for k, row := range stepRows {
			for i := range row {
				if a, b := bulkRows[k][i], row[i]; a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("trial %d: external row %v = %v, stepwise %v", trial, k, bulkRows[k], row)
				}
			}
		}
	}
}

// TestUpdateAcrossCenturiesIsBounded: a sample two hundred years after the
// one before it (a wrong clock on one host) is folded in at a cost bounded
// by the archives, not by the hundred million steps between, and leaves a
// database that takes the next update.
func TestUpdateAcrossCenturiesIsBounded(t *testing.T) {
	db, err := New(t0, time.Minute, []DS{gaugeDS("v")}, []RRA{
		{CF: Average, XFF: 0.5, Steps: 1, Rows: 1440},
		{CF: Max, XFF: 0.5, Steps: 60, Rows: 24 * 7},
		{CF: Average, XFF: 0.5, Steps: 1440, Rows: 365},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0.Add(time.Minute), 1); err != nil {
		t.Fatal(err)
	}
	far := t0.AddDate(200, 0, 0)
	start := time.Now()
	if err := db.Update(far, 2); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("a 200-year gap took %v", took)
	}
	if err := db.Update(far.Add(time.Minute), 3); err != nil {
		t.Fatal(err)
	}
	s, err := db.Fetch(Average, far.Add(-time.Hour), far.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := s.Values("v")
	if err != nil {
		t.Fatal(err)
	}
	if v := vals[len(vals)-1]; v != 3 {
		t.Fatalf("the update after the gap reads %v, want 3 (%v)", v, vals)
	}
}
