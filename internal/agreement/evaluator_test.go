package agreement

import (
	"reflect"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
)

// TestEvaluatorMatchesEvaluate: memoized evaluation must be observably
// identical to one-shot evaluation, cycle after cycle, through changes.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	populateCompliant(t, c, "r2", "ncsa")
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r1", okBody())
	fabricate(t, c, "other1", "anl", "grid.xsite.gram-gatekeeper.to.r2", okBody())

	ag := smallAgreement()
	ev := NewEvaluator(ag)
	compare := func(at time.Time) {
		t.Helper()
		oneShot, err := Evaluate(ag, c, at)
		if err != nil {
			t.Fatal(err)
		}
		memoized, err := ev.Evaluate(c, at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oneShot, memoized) {
			t.Fatalf("divergence at %v:\none-shot %+v\nmemoized %+v", at, oneShot, memoized)
		}
	}

	compare(t0)
	// Unchanged cache → second cycle reuses everything and still matches.
	compare(t0.Add(10 * time.Minute))
	if ev.MemoSize() == 0 {
		t.Fatal("memo empty after evaluations")
	}
	// A report changes (globus breaks on r1) → divergence must not appear.
	fabricate(t, c, "r1", "sdsc", "grid.unit.globus", failBody("went red"))
	compare(t0.Add(20 * time.Minute))
	// And recovers.
	fabricate(t, c, "r1", "sdsc", "grid.unit.globus", okBody())
	compare(t0.Add(30 * time.Minute))
}

func TestEvaluatorMemoEviction(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	ev := NewEvaluator(smallAgreement())
	if _, err := ev.Evaluate(c, t0); err != nil {
		t.Fatal(err)
	}
	before := ev.MemoSize()
	if before == 0 {
		t.Fatal("memo empty")
	}
	// Rebuild a smaller cache: evaluating it must evict stale entries.
	c2 := depot.NewIndexedCache()
	fabricate(t, c2, "r1", "sdsc", "grid.version.globus", versionBody("globus", "2.4.3"))
	if _, err := ev.Evaluate(c2, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if ev.MemoSize() != 1 {
		t.Fatalf("memo = %d after eviction, want 1", ev.MemoSize())
	}
}

func TestEvaluatorSkipsForeignData(t *testing.T) {
	c := depot.NewIndexedCache()
	populateCompliant(t, c, "r1", "sdsc")
	if _, err := c.Update(branch.MustParse("x=1,resource=r1,vo=tg"), []byte("<foreign/>")); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(smallAgreement())
	if _, err := ev.Evaluate(c, t0); err != nil {
		t.Fatal(err)
	}
	// Foreign entries are re-tried each cycle but never memoized as
	// reports; the evaluator must not crash or grow unboundedly.
	if _, err := ev.Evaluate(c, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}
