package depot_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

// hammerCache drives concurrent writers and readers against a cache and
// then asserts every writer's final payload is stored under its identifier
// exactly once. Run under -race this exercises the single RWMutex of
// StreamCache and IndexedCache.
func hammerCache(t *testing.T, c depot.Cache) {
	t.Helper()
	const (
		writers   = 8
		perWriter = 20
		rounds    = 3
	)
	idFor := func(w, i int) branch.ID {
		return branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=race", i, w))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perWriter; i++ {
					payload := depot.ReportXMLFor("rep", fmt.Sprintf("w%d-r%d-i%d", w, r, i))
					if _, err := c.Update(idFor(w, i), payload); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
		// Interleave readers exercising Query, Reports, Dump and Size
		// while the writers churn.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := branch.MustParse(fmt.Sprintf("site=s%02d,vo=race", w))
			for r := 0; r < rounds*perWriter; r++ {
				if _, _, err := c.Query(prefix); err != nil {
					errs <- err
					return
				}
				if _, err := c.Reports(prefix); err != nil {
					errs <- err
					return
				}
				_ = c.Dump()
				_ = c.Size()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := c.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
	stored, err := c.Reports(branch.ID{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, s := range stored {
		seen[s.ID.String()]++
	}
	lastRound := fmt.Sprintf("-r%d-", rounds-1)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := idFor(w, i)
			if n := seen[id.String()]; n != 1 {
				t.Fatalf("identifier %s stored %d times, want exactly once", id, n)
			}
		}
	}
	// Every surviving payload is from some complete Update (replacement is
	// atomic): the final round's writes must all be visible.
	for _, s := range stored {
		if !bytes.Contains(s.XML, []byte(lastRound)) {
			t.Fatalf("stale payload under %s: %s", s.ID, s.XML)
		}
	}
	if len(stored) != writers*perWriter {
		t.Fatalf("Reports returned %d entries, want %d", len(stored), writers*perWriter)
	}
}

func TestStreamCacheConcurrent(t *testing.T) {
	hammerCache(t, ablation.NewStreamCache())
}

func TestIndexedCacheConcurrent(t *testing.T) {
	hammerCache(t, depot.NewIndexedCache())
}

// TestIndexedCacheConcurrentEquivalence pins the lazy-materialization path
// under contention: a single writer applies the same insert sequence to an
// IndexedCache and a shadow StreamCache, asserting byte-identical dumps
// after every generation, while reader goroutines concurrently hammer
// Query, Reports, Dump and Size. Run under -race this catches both data
// races in the double-checked Dump memoization and any reader observing a
// half-applied update.
func TestIndexedCacheConcurrentEquivalence(t *testing.T) {
	idx := depot.NewIndexedCache()
	shadow := ablation.NewStreamCache()

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			exact := branch.MustParse(fmt.Sprintf("probe=p%02d,site=s0,vo=eq", r))
			prefix := branch.MustParse("vo=eq")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := idx.Query(exact); err != nil {
					t.Error(err)
					return
				}
				if _, err := idx.Reports(prefix); err != nil {
					t.Error(err)
					return
				}
				d := idx.Dump()
				// Whatever snapshot a reader gets must be a well-formed
				// cache document, never a torn one.
				if !bytes.HasPrefix(d, []byte("<cache>")) || !bytes.HasSuffix(d, []byte("</cache>")) {
					t.Errorf("torn dump: %.40s...%s", d, d[max(0, len(d)-20):])
					return
				}
				_ = idx.Size()
				_ = idx.Generation()
			}
		}(r)
	}

	const updates = 300
	for i := 0; i < updates; i++ {
		id := branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%d,vo=eq", i%10, i%3))
		payload := depot.ReportXMLFor("rep", fmt.Sprintf("u%d", i))
		addedIdx, err := idx.Update(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		addedShadow, err := shadow.Update(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if addedIdx != addedShadow {
			t.Fatalf("update %d: indexed added=%v, stream added=%v", i, addedIdx, addedShadow)
		}
		if got, want := idx.Dump(), shadow.Dump(); !bytes.Equal(got, want) {
			t.Fatalf("update %d: dumps diverged:\nindexed: %s\nstream:  %s", i, got, want)
		}
		if idx.Generation() != uint64(i+1) {
			t.Fatalf("update %d: generation = %d", i, idx.Generation())
		}
	}
	close(stop)
	wg.Wait()

	if idx.Size() != shadow.Size() || idx.Count() != shadow.Count() {
		t.Fatalf("final state: indexed (size=%d count=%d), stream (size=%d count=%d)",
			idx.Size(), idx.Count(), shadow.Size(), shadow.Count())
	}
}
