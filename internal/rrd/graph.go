package rrd

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// GraphOptions controls ASCII rendering of a fetched series.
type GraphOptions struct {
	Width  int // plot columns (default 72)
	Height int // plot rows (default 16)
	// Title is printed above the plot.
	Title string
	// YLabel names the value axis (e.g. "Mbps", "% available").
	YLabel string
	// YMin/YMax fix the value range; leave both zero to auto-scale.
	YMin, YMax float64
	// TimeFormat formats the x-axis tick labels (default "Mon 15:04").
	TimeFormat string
}

// Graph renders one data source of a series as a horizontal-time ASCII plot
// — this reproduction's stand-in for the paper's Figure 5/6 graphs, which
// TeraGrid produced with RRDTool's PNG grapher.
func Graph(s *Series, ds string, opt GraphOptions) (string, error) {
	vals, err := s.Values(ds)
	if err != nil {
		return "", err
	}
	if opt.Width <= 0 {
		opt.Width = 72
	}
	if opt.Height <= 0 {
		opt.Height = 16
	}
	if opt.TimeFormat == "" {
		opt.TimeFormat = "Mon 15:04"
	}
	lo, hi := opt.YMin, opt.YMax
	if lo == 0 && hi == 0 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if math.IsInf(lo, 1) { // all unknown
			lo, hi = 0, 1
		}
		if lo == hi {
			hi = lo + 1
		}
		// Pad 5% so extremes don't sit on the frame.
		pad := (hi - lo) * 0.05
		lo -= pad
		hi += pad
	}

	grid := make([][]byte, opt.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opt.Width))
	}
	n := len(vals)
	for col := 0; col < opt.Width; col++ {
		// Average the samples mapping to this column.
		loIdx := col * n / opt.Width
		hiIdx := (col + 1) * n / opt.Width
		if hiIdx <= loIdx {
			hiIdx = loIdx + 1
		}
		sum, known := 0.0, 0
		for i := loIdx; i < hiIdx && i < n; i++ {
			if !math.IsNaN(vals[i]) {
				sum += vals[i]
				known++
			}
		}
		if known == 0 {
			continue
		}
		v := sum / float64(known)
		frac := (v - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		row := opt.Height - 1 - int(frac*float64(opt.Height-1)+0.5)
		grid[row][col] = '*'
	}

	var sb strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&sb, "%s\n", opt.Title)
	}
	for i, rowBytes := range grid {
		// Label top, middle, bottom rows with values.
		label := ""
		switch i {
		case 0:
			label = fmt.Sprintf("%10.2f", hi)
		case opt.Height / 2:
			label = fmt.Sprintf("%10.2f", (hi+lo)/2)
		case opt.Height - 1:
			label = fmt.Sprintf("%10.2f", lo)
		default:
			label = strings.Repeat(" ", 10)
		}
		fmt.Fprintf(&sb, "%s |%s|\n", label, rowBytes)
	}
	fmt.Fprintf(&sb, "%s +%s+\n", strings.Repeat(" ", 10), strings.Repeat("-", opt.Width))
	if len(s.Points) > 0 {
		first := s.Points[0].Time.Format(opt.TimeFormat)
		last := s.Points[len(s.Points)-1].Time.Format(opt.TimeFormat)
		gap := opt.Width - len(first) - len(last)
		if gap < 1 {
			gap = 1
		}
		fmt.Fprintf(&sb, "%s  %s%s%s\n", strings.Repeat(" ", 10), first, strings.Repeat(" ", gap), last)
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&sb, "%s  y: %s, resolution %v, CF %s\n", strings.Repeat(" ", 10), opt.YLabel, s.Resolution, s.CF)
	}
	return sb.String(), nil
}

// SparkLine renders the series as a single-line sparkline (block glyphs),
// handy for compact status pages.
func SparkLine(vals []float64) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat("·", len(vals))
	}
	if lo == hi {
		hi = lo + 1
	}
	var sb strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) {
			sb.WriteRune('·')
			continue
		}
		idx := int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		sb.WriteRune(glyphs[idx])
	}
	return sb.String()
}

// ArchivalPolicy is the depot-facing description of how to archive one
// numeric datum (paper Section 3.2.2: "the granularity of archiving (e.g.,
// every fifth measurement) and the length of history to keep").
type ArchivalPolicy struct {
	// Step is the expected measurement period.
	Step time.Duration
	// Granularity archives every Nth measurement (1 = every measurement).
	Granularity int
	// History is how far back to keep data.
	History time.Duration
	// Heartbeat marks data unknown after this silence (default 2*Step).
	Heartbeat time.Duration
	// CFs lists the consolidation functions to maintain (default AVERAGE).
	CFs []CF
}

// MaxRows bounds an archive's rows: ReadDB refuses an image with more, so
// PolicyLayout refuses a policy that would need more.
const MaxRows = 1 << 24

// PolicyLayout expands an archival policy into the concrete database
// layout NewFromPolicy builds — exported so alternative storage engines
// (the paged on-disk format in rrd/file) create archives with exactly the
// geometry the in-memory path would. A policy whose row (Step ×
// Granularity) overflows a Duration, or whose History needs more than
// MaxRows rows, is refused.
func PolicyLayout(dsName string, p ArchivalPolicy) (time.Duration, []DS, []RRA, error) {
	if p.Step <= 0 {
		return 0, nil, nil, fmt.Errorf("rrd: policy step must be positive")
	}
	if p.Granularity <= 0 {
		p.Granularity = 1
	}
	if p.History <= 0 {
		return 0, nil, nil, fmt.Errorf("rrd: policy history must be positive")
	}
	hb := p.Heartbeat
	if hb <= 0 {
		hb = 2 * p.Step
	}
	cfs := p.CFs
	if len(cfs) == 0 {
		cfs = []CF{Average}
	}
	if p.Step > math.MaxInt64/time.Duration(p.Granularity) {
		return 0, nil, nil, fmt.Errorf("rrd: policy step %v × granularity %d overflows", p.Step, p.Granularity)
	}
	rowDur := p.Step * time.Duration(p.Granularity)
	if p.History/rowDur > MaxRows {
		return 0, nil, nil, fmt.Errorf("rrd: policy history %v of %v rows is over %d rows", p.History, rowDur, MaxRows)
	}
	rows := max(int(p.History/rowDur), 1)
	var rras []RRA
	for _, cf := range cfs {
		rras = append(rras, RRA{CF: cf, XFF: 0.5, Steps: p.Granularity, Rows: rows})
	}
	ds := []DS{{Name: dsName, Type: Gauge, Heartbeat: hb, Min: math.NaN(), Max: math.NaN()}}
	return p.Step, ds, rras, nil
}

// NewFromPolicy builds a single-source DB implementing the policy.
func NewFromPolicy(start time.Time, dsName string, p ArchivalPolicy) (*DB, error) {
	step, ds, rras, err := PolicyLayout(dsName, p)
	if err != nil {
		return nil, err
	}
	return New(start, step, ds, rras)
}
