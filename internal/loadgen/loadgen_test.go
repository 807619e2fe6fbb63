package loadgen

import (
	"fmt"
	"strings"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
)

func TestPremadeReportExactSizes(t *testing.T) {
	for _, size := range PaperReportSizes {
		data, err := PremadeReport(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(data) != size {
			t.Fatalf("size %d: got %d bytes", size, len(data))
		}
		rep, err := report.Parse(data)
		if err != nil {
			t.Fatalf("size %d: unparseable: %v", size, err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("size %d: invalid: %v", size, err)
		}
	}
}

func TestPremadeReportTooSmall(t *testing.T) {
	if _, err := PremadeReport(50); err == nil {
		t.Fatal("50-byte report accepted")
	}
}

func TestPremadeReportArbitrarySizes(t *testing.T) {
	for _, size := range []int{600, 1024, 4096, 100000} {
		data, err := PremadeReport(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(data) != size {
			t.Fatalf("size %d: got %d", size, len(data))
		}
	}
}

func TestFillToSize(t *testing.T) {
	c := depot.NewIndexedCache()
	target := 256 * 1024
	n, err := FillToSize(CacheStore{c}, target, 851)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() < target {
		t.Fatalf("cache %d below target %d", c.Size(), target)
	}
	// Roughly target/entrySize identifiers.
	if n < target/1200 || n > target/700 {
		t.Fatalf("n = %d implausible for target %d", n, target)
	}
	if c.Count() != n {
		t.Fatalf("count %d != fills %d", c.Count(), n)
	}
}

func TestUpdateCycleHoldsSizeSteady(t *testing.T) {
	c := depot.NewIndexedCache()
	n, err := FillToSize(CacheStore{c}, 128*1024, 851)
	if err != nil {
		t.Fatal(err)
	}
	sizeAfterFill := c.Size()
	cycle, err := NewUpdateCycle(CacheStore{c}, 851, n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < n*2; i++ {
		id, err := cycle.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen[id.String()] = true
	}
	if len(seen) != n {
		t.Fatalf("cycle touched %d ids, want %d", len(seen), n)
	}
	if c.Size() != sizeAfterFill {
		t.Fatalf("steady-state size drifted: %d -> %d", sizeAfterFill, c.Size())
	}
	if c.Count() != n {
		t.Fatalf("count changed: %d", c.Count())
	}
}

func TestNewUpdateCycleValidation(t *testing.T) {
	c := depot.NewIndexedCache()
	if _, err := NewUpdateCycle(CacheStore{c}, 851, 0); err == nil {
		t.Fatal("empty cycle accepted")
	}
}

func TestDepotStoreAdapter(t *testing.T) {
	d := depot.New(nil)
	s := DepotStore{d}
	if err := s.Store(branch.MustParse("a=1"), MustPremadeReport(851)); err != nil {
		t.Fatal(err)
	}
	if s.Size() == 0 {
		t.Fatal("size not reported")
	}
	if d.Stats().Received != 1 {
		t.Fatal("depot stats not updated")
	}
}

func TestMustPremadeReportPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustPremadeReport(10)
}

func TestPremadeReportBoundarySizes(t *testing.T) {
	min, padMin := MinReportSize(), MinPaddedReportSize()
	if min <= 0 || padMin <= min+1 {
		t.Fatalf("implausible bounds: MinReportSize=%d MinPaddedReportSize=%d", min, padMin)
	}
	cases := []struct {
		name     string
		size     int
		feasible bool
		errWant  string // substring the error must carry when infeasible
	}{
		{"below minimum", min - 1, false, "minimum feasible report size"},
		{"bare minimum", min, true, ""},
		{"first gap byte", min + 1, false, "unreachable"},
		{"last gap byte", padMin - 1, false, "unreachable"},
		{"smallest padded", padMin, true, ""},
		{"padded + 1", padMin + 1, true, ""},
		{"padded + 100", padMin + 100, true, ""},
	}
	for _, size := range PaperReportSizes {
		cases = append(cases, struct {
			name     string
			size     int
			feasible bool
			errWant  string
		}{fmt.Sprintf("paper size %d", size), size, true, ""})
	}
	for _, tc := range cases {
		data, err := PremadeReport(tc.size)
		if tc.feasible {
			if err != nil {
				t.Fatalf("%s (%d): %v", tc.name, tc.size, err)
			}
			if len(data) != tc.size {
				t.Fatalf("%s (%d): produced %d bytes", tc.name, tc.size, len(data))
			}
			rep, perr := report.Parse(data)
			if perr != nil {
				t.Fatalf("%s (%d): unparseable: %v", tc.name, tc.size, perr)
			}
			if verr := rep.Validate(); verr != nil {
				t.Fatalf("%s (%d): invalid: %v", tc.name, tc.size, verr)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s (%d): unexpectedly feasible (%d bytes)", tc.name, tc.size, len(data))
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Fatalf("%s (%d): error %q does not explain the boundary (want %q)", tc.name, tc.size, err, tc.errWant)
		}
	}
}

func TestMinReportSizeDiscoversFeasibleSet(t *testing.T) {
	// Exhaustively confirm the advertised bounds: everything below
	// MinReportSize or inside the gap errors, everything from
	// MinPaddedReportSize up to a margin is hit exactly.
	min, padMin := MinReportSize(), MinPaddedReportSize()
	for size := min - 5; size < padMin+50; size++ {
		data, err := PremadeReport(size)
		feasible := size == min || size >= padMin
		if feasible {
			if err != nil {
				t.Fatalf("size %d inside the advertised feasible set failed: %v", size, err)
			}
			if len(data) != size {
				t.Fatalf("size %d: produced %d", size, len(data))
			}
		} else if err == nil {
			t.Fatalf("size %d outside the advertised feasible set succeeded", size)
		}
	}
}
