package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSlope(t *testing.T) {
	if got := Slope([]float64{1, 2, 3}, []float64{2, 4, 6}); !almostEqual(got, 2) {
		t.Fatalf("Slope = %g, want 2", got)
	}
	if got := Slope([]float64{0, 10}, []float64{5, 5}); !almostEqual(got, 0) {
		t.Fatalf("flat Slope = %g, want 0", got)
	}
	if !math.IsNaN(Slope([]float64{1}, []float64{1})) {
		t.Fatal("single-point slope not NaN")
	}
	if !math.IsNaN(Slope([]float64{1, 2}, []float64{1})) {
		t.Fatal("mismatched-length slope not NaN")
	}
	if !math.IsNaN(Slope([]float64{3, 3}, []float64{1, 2})) {
		t.Fatal("degenerate-x slope not NaN")
	}
}

func TestDetectKneePlateauWithLatencyInflection(t *testing.T) {
	// Classic saturation: throughput doubles with load until 8 clients,
	// then flattens while p95 takes off.
	points := []CurvePoint{
		{Load: 1, Throughput: 1000, P95: 10},
		{Load: 2, Throughput: 1950, P95: 11},
		{Load: 4, Throughput: 3900, P95: 12},
		{Load: 8, Throughput: 7500, P95: 14},
		{Load: 16, Throughput: 7800, P95: 40},
		{Load: 32, Throughput: 7600, P95: 95},
	}
	knee, ok := DetectKnee(points, KneeOptions{})
	if !ok {
		t.Fatal("no knee detected on a saturating curve")
	}
	if knee.Index != 4 || knee.Load != 16 {
		t.Fatalf("knee at index %d load %g, want index 4 load 16 (%+v)", knee.Index, knee.Load, knee)
	}
	if !knee.LatencyConfirmed {
		t.Fatalf("latency inflection not confirmed: %+v", knee)
	}
	if knee.Reason == "" {
		t.Fatal("empty knee reason")
	}
}

func TestDetectKneeNoPlateau(t *testing.T) {
	// Linear scaling all the way: no knee to find.
	points := []CurvePoint{
		{Load: 1, Throughput: 100, P95: 10},
		{Load: 2, Throughput: 200, P95: 10},
		{Load: 4, Throughput: 400, P95: 10},
		{Load: 8, Throughput: 800, P95: 10},
	}
	if knee, ok := DetectKnee(points, KneeOptions{}); ok {
		t.Fatalf("knee %+v detected on a linearly scaling curve", knee)
	}
}

func TestDetectKneeThroughputDecline(t *testing.T) {
	// Overload collapse: past the knee throughput falls. The negative
	// marginal slope must qualify as a knee, a collapse, even with a
	// generous threshold.
	points := []CurvePoint{
		{Load: 1, Throughput: 500, P95: 20},
		{Load: 2, Throughput: 990, P95: 21},
		{Load: 4, Throughput: 900, P95: 80},
		{Load: 8, Throughput: 700, P95: 200},
	}
	knee, ok := DetectKnee(points, KneeOptions{PlateauFrac: 0.01})
	if !ok {
		t.Fatal("no knee on a collapsing curve")
	}
	if knee.Index != 2 || knee.Kind != Collapse {
		t.Fatalf("knee at index %d (%s), want a collapse at 2 (%+v)", knee.Index, knee.Kind, knee)
	}
	if !knee.LatencyConfirmed {
		t.Fatalf("p95 quadrupled yet inflection unconfirmed: %+v", knee)
	}
}

func TestDetectKneeSaturatedFromFirstStage(t *testing.T) {
	// On a small machine the service can saturate below the first measured
	// load: throughput never rises. The knee is the first non-rising stage
	// — the curve must not read as "no knee" just because the ramp missed
	// the ascent.
	points := []CurvePoint{
		{Load: 1, Throughput: 4000, P95: 800},
		{Load: 2, Throughput: 3900, P95: 2100},
		{Load: 4, Throughput: 3200, P95: 4400},
	}
	knee, ok := DetectKnee(points, KneeOptions{})
	if !ok {
		t.Fatal("no knee on a curve that is saturated from the start")
	}
	if knee.Index != 1 || knee.Load != 2 {
		t.Fatalf("knee = %+v, want the first non-rising stage (index 1, load 2)", knee)
	}
	if !knee.LatencyConfirmed {
		t.Fatalf("p95 more than doubled yet inflection unconfirmed: %+v", knee)
	}
}

func TestDetectKneePrefersLatencyConfirmedStage(t *testing.T) {
	// The plateau starts at index 2, but p95 only inflects at index 3:
	// the reported knee upgrades to the latency-confirmed stage.
	points := []CurvePoint{
		{Load: 1, Throughput: 1000, P95: 10},
		{Load: 2, Throughput: 2000, P95: 10},
		{Load: 4, Throughput: 2050, P95: 12},
		{Load: 8, Throughput: 2100, P95: 50},
	}
	knee, ok := DetectKnee(points, KneeOptions{})
	if !ok {
		t.Fatal("no knee detected")
	}
	if knee.Index != 3 || !knee.LatencyConfirmed {
		t.Fatalf("knee = %+v, want latency-confirmed index 3", knee)
	}
}

// TestDetectKneeKind: a curve that flattens knees as a plateau, one that
// rises and then falls as a collapse, each at the stage where it bends.
func TestDetectKneeKind(t *testing.T) {
	for _, tc := range []struct {
		name   string
		points []CurvePoint
		index  int
		kind   KneeKind
	}{
		{"flattens", []CurvePoint{
			{Load: 1, Throughput: 1000, P95: 10},
			{Load: 2, Throughput: 2000, P95: 10},
			{Load: 4, Throughput: 2100, P95: 30},
			{Load: 8, Throughput: 2100, P95: 60},
		}, 2, Plateau},
		{"rises then falls", []CurvePoint{
			{Load: 1, Throughput: 1000, P95: 10},
			{Load: 2, Throughput: 2000, P95: 10},
			{Load: 4, Throughput: 1500, P95: 30},
			{Load: 8, Throughput: 900, P95: 80},
		}, 2, Collapse},
	} {
		knee, ok := DetectKnee(tc.points, KneeOptions{})
		if !ok || knee.Index != tc.index || knee.Kind != tc.kind {
			t.Errorf("%s: knee %+v (found %v), want index %d, %s", tc.name, knee, ok, tc.index, tc.kind)
		}
		if !strings.Contains(knee.Reason, string(tc.kind)) {
			t.Errorf("%s: reason %q does not name the %s", tc.name, knee.Reason, tc.kind)
		}
	}
}

func TestDetectKneeDegenerateInputs(t *testing.T) {
	if _, ok := DetectKnee(nil, KneeOptions{}); ok {
		t.Fatal("knee on empty curve")
	}
	if _, ok := DetectKnee([]CurvePoint{{1, 1, 1}, {2, 2, 1}}, KneeOptions{}); ok {
		t.Fatal("knee on a two-point curve")
	}
	unsorted := []CurvePoint{{4, 1, 1}, {2, 2, 1}, {8, 2, 1}}
	if _, ok := DetectKnee(unsorted, KneeOptions{}); ok {
		t.Fatal("knee on an unsorted curve")
	}
	dup := []CurvePoint{{2, 1, 1}, {2, 2, 1}, {4, 2, 1}}
	if _, ok := DetectKnee(dup, KneeOptions{}); ok {
		t.Fatal("knee on a duplicate-load curve")
	}
}

func TestPercentileTwoSampleInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); !almostEqual(got, 15) {
		t.Fatalf("P50 = %g, want 15", got)
	}
	if got := Percentile(xs, 25); !almostEqual(got, 12.5) {
		t.Fatalf("P25 = %g, want 12.5", got)
	}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("P0 = %g, want 10", got)
	}
	if got := Percentile(xs, 100); got != 20 {
		t.Fatalf("P100 = %g, want 20", got)
	}
}

func TestPercentileOutOfRangeClamps(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, -10); got != 1 {
		t.Fatalf("P(-10) = %g, want min", got)
	}
	if got := Percentile(xs, 250); got != 3 {
		t.Fatalf("P(250) = %g, want max", got)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	for _, p := range []float64{0, 17, 50, 99, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("P%g of one sample = %g, want 7", p, got)
		}
	}
}
