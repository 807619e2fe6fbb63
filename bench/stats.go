package main

import (
	"time"

	"inca/internal/stats"
)

// sample is one timed operation: when it completed, as an offset into the
// measured window, how long it took, and how many units of work it was (the
// reports a batch had acknowledged; 1 for a read or an event).
type sample struct {
	at, took time.Duration
	n        int
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedPercentile returns the highest percentile, no higher than want,
// that has at least minBeyond of n samples beyond it; 0 when even the median
// has not.
func supportedPercentile(n int, want float64) float64 {
	if n < 2*minBeyond {
		return 0
	}
	if p := 100 * (1 - float64(minBeyond)/float64(n)); p < want {
		return p
	}
	return want
}

// percentileMS returns the want-th percentile of all the samples of a
// window, in milliseconds. When the samples are too few for it, the highest
// percentile they support is reported instead (the median, if they support
// none), and used says which that was.
func percentileMS(samples []sample, want float64) (ms, used float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	if used = supportedPercentile(len(samples), want); used == 0 {
		used = 50
	}
	return stats.Percentile(millis(samples), used), used
}

func millis(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.took) / float64(time.Millisecond)
	}
	return out
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// The end-to-end figures are taken second by second: a figure is computed
// for every whole second of the measured window, and the median second is
// reported, after each second's figure has been corrected for how fast the
// host was in that second (hostspeed.go). This host's speed changes for
// seconds at a time with what its neighbours do, and a whole-window mean
// follows every such episode, while the median second does not until they
// fill half the window. The price: a change that stalls the program in fewer
// than half of all seconds moves the tails (per-layer) and not these
// figures.

// bySecond groups samples by the second of the window they completed in.
// Only the seconds the window covers in full are kept; a window shorter
// than a second is one group.
func bySecond(samples []sample, window time.Duration) [][]sample {
	whole := int(window / time.Second)
	if whole == 0 {
		return [][]sample{samples}
	}
	groups := make([][]sample, whole)
	for _, s := range samples {
		if k := int(s.at / time.Second); k >= 0 && k < whole {
			groups[k] = append(groups[k], s)
		}
	}
	return groups
}

// medianSecondP50MS is the median, over the seconds of the window in which
// an operation completed, of that second's median latency in milliseconds
// divided by the second's host factor (hostspeed.go; nil leaves the figures
// as measured).
func medianSecondP50MS(samples []sample, window time.Duration, host []float64) float64 {
	var p50s []float64
	for k, g := range bySecond(samples, window) {
		if len(g) > 0 {
			p50s = append(p50s, median(millis(g))/factor(host, k))
		}
	}
	if len(p50s) == 0 {
		return 0
	}
	return median(p50s)
}

func factor(host []float64, k int) float64 {
	if k < len(host) {
		return host[k]
	}
	return 1
}

// medianSecondRate is the median, over the seconds of the window, of the
// units of work completed in that second times the second's host factor. A
// second in which nothing completed counts, as zero.
func medianSecondRate(samples []sample, window time.Duration, host []float64) float64 {
	var rates []float64
	for k, g := range bySecond(samples, window) {
		n := 0
		for _, s := range g {
			n += s.n
		}
		rates = append(rates, float64(n)*factor(host, k))
	}
	if window < time.Second {
		rates[0] /= window.Seconds()
	}
	return median(rates)
}

// cpuPoint is the servers' CPU time at one moment of the window.
type cpuPoint struct {
	at  time.Duration
	cpu float64
}

// medianCPUPerKop is the median, over the intervals between consecutive
// readings of the servers' CPU time (about a second each), of CPU seconds
// per thousand units of work completed in the interval, divided by the host
// factor of the second the interval began in.
func medianCPUPerKop(points []cpuPoint, ops []sample, host []float64) float64 {
	var perKop []float64
	for i := 1; i < len(points); i++ {
		n := 0
		for _, s := range ops {
			if s.at > points[i-1].at && s.at <= points[i].at {
				n += s.n
			}
		}
		if n > 0 {
			perKop = append(perKop, (points[i].cpu-points[i-1].cpu)/(float64(n)/1000)/factor(host, int(points[i-1].at/time.Second)))
		}
	}
	if len(perKop) == 0 {
		return 0
	}
	return median(perKop)
}

// pacer schedules an open-loop client: firing k is due at start + k*period
// whatever happened to the firings before it, so a stall shows as lateness
// on every firing it delayed instead of silently lowering the offered rate.
type pacer struct {
	start  time.Time
	period time.Duration
	k      int
}

// next returns when the next firing is due.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.k) * p.period)
	p.k++
	return due
}

// lateness is how long after its due time a firing began.
func lateness(due, began time.Time) time.Duration {
	if began.Before(due) {
		return 0
	}
	return began.Sub(due)
}
