package stats

import (
	"fmt"
	"math"
	"sort"
)

// CurvePoint is one stage of a load-vs-response curve: the offered load
// (concurrent closed-loop clients), the achieved throughput, and the
// p95 response time at that load — the DiPerF axes.
type CurvePoint struct {
	Load       float64 // concurrency (or offered rate)
	Throughput float64 // achieved ops/sec
	P95        float64 // response-time percentile at this load (any unit)
}

// Slope returns the least-squares slope of ys over xs. It needs at least
// two points with distinct x values; otherwise it returns NaN.
func Slope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(len(xs)), sy/float64(len(ys))
	var num, den float64
	for i := range xs {
		dx := xs[i] - mx
		num += dx * (ys[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// KneeOptions tunes saturation-knee detection.
type KneeOptions struct {
	// PlateauFrac is the throughput-plateau threshold: a ramp segment
	// whose marginal throughput slope falls below PlateauFrac times the
	// steepest earlier segment marks the curve as flattening
	// (default 0.25). Negative marginal slopes (throughput decline past
	// saturation) always qualify, as a Collapse.
	PlateauFrac float64
	// LatencyInflect is the response-time inflection threshold: the
	// stage's p95 must exceed LatencyInflect times the minimum p95 of the
	// stages before the candidate for the knee to count as confirmed by
	// latency (default 1.5).
	LatencyInflect float64
}

func (o *KneeOptions) fill() {
	if o.PlateauFrac <= 0 {
		o.PlateauFrac = 0.25
	}
	if o.LatencyInflect <= 0 {
		o.LatencyInflect = 1.5
	}
}

// KneeKind says how throughput behaves at a knee.
type KneeKind string

const (
	// Plateau: throughput at the knee stage is at least the previous
	// stage's, but grew by less than PlateauFrac of the steepest earlier
	// gain — the service is saturated and holds its rate.
	Plateau KneeKind = "plateau"
	// Collapse: throughput at the knee stage fell below the previous
	// stage's — added load costs the service throughput.
	Collapse KneeKind = "collapse"
)

// Knee is a detected saturation point on a load curve.
type Knee struct {
	// Index is the position of the knee stage in the input curve.
	Index int
	// Kind tells a plateau from a collapse.
	Kind KneeKind
	// Load, Throughput, and P95 echo the knee stage's point.
	Load       float64
	Throughput float64
	P95        float64
	// LatencyConfirmed reports whether the p95 inflection criterion held
	// at the knee in addition to the throughput plateau.
	LatencyConfirmed bool
	// Reason is a human-readable account of what triggered detection.
	Reason string
}

// DetectKnee locates the saturation knee of a monotone-load curve: the
// first stage at which throughput stops growing (the marginal ops/sec
// gained per unit of added load drops below PlateauFrac of the steepest
// earlier segment, DiPerF's plateau; a non-positive marginal slope
// always qualifies, so a curve already saturated at its first measured
// load knees at the first non-rising stage, and a falling stage is a
// Collapse rather than a Plateau) — preferring, when one
// exists, a plateau stage whose p95 has also inflected above
// LatencyInflect times the pre-knee minimum. Points must be sorted by
// strictly increasing Load; ok is false when the curve never flattens
// (or has fewer than three points, too few to separate ramp from
// plateau).
func DetectKnee(points []CurvePoint, opt KneeOptions) (Knee, bool) {
	opt.fill()
	if len(points) < 3 {
		return Knee{}, false
	}
	if !sort.SliceIsSorted(points, func(i, j int) bool { return points[i].Load < points[j].Load }) {
		return Knee{}, false
	}
	// Marginal throughput slope of each ramp segment [i-1, i].
	slopes := make([]float64, len(points))
	for i := 1; i < len(points); i++ {
		dl := points[i].Load - points[i-1].Load
		if dl <= 0 {
			return Knee{}, false
		}
		slopes[i] = (points[i].Throughput - points[i-1].Throughput) / dl
	}
	knee := Knee{Index: -1}
	peak := math.Inf(-1) // steepest marginal gain seen before the candidate
	minP95 := points[0].P95
	for i := 1; i < len(points); i++ {
		if i >= 2 && slopes[i-1] > peak {
			peak = slopes[i-1]
		}
		plateau := slopes[i] <= 0 || (peak > 0 && slopes[i] < opt.PlateauFrac*peak)
		if plateau {
			inflected := minP95 > 0 && points[i].P95 >= opt.LatencyInflect*minP95
			if knee.Index < 0 || (inflected && !knee.LatencyConfirmed) {
				knee = Knee{
					Index:            i,
					Kind:             Plateau,
					Load:             points[i].Load,
					Throughput:       points[i].Throughput,
					P95:              points[i].P95,
					LatencyConfirmed: inflected,
				}
				if slopes[i] < 0 {
					knee.Kind = Collapse
				}
				peakDesc := fmt.Sprintf("peak %.1f", peak)
				if math.IsInf(peak, -1) {
					peakDesc = "no rising segment"
				}
				if inflected {
					knee.Reason = fmt.Sprintf(
						"throughput %s (marginal slope %.1f, %s ops/sec per client) with p95 inflection (%.0f vs pre-knee min %.0f)",
						knee.Kind, slopes[i], peakDesc, points[i].P95, minP95)
					break // first latency-confirmed plateau wins outright
				}
				knee.Reason = fmt.Sprintf(
					"throughput %s (marginal slope %.1f, %s ops/sec per client; p95 %.0f below inflection threshold)",
					knee.Kind, slopes[i], peakDesc, points[i].P95)
			}
		}
		if points[i].P95 < minP95 {
			minP95 = points[i].P95
		}
	}
	if knee.Index < 0 {
		return Knee{}, false
	}
	return knee, true
}
