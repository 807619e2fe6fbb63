// Package experiments regenerates every table and figure in the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each experiment
// returns a Result whose Text is the table/series the paper reports;
// cmd/inca-bench prints them and bench_test.go wraps the hot paths in
// testing.B benchmarks.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Result is one regenerated artifact.
type Result struct {
	// ID is the experiment identifier (e.g. "table4", "fig9").
	ID string
	// Title describes the paper artifact.
	Title string
	// Text is the regenerated table/series/plot.
	Text string
	// Notes records scaling decisions and paper-vs-measured remarks.
	Notes []string
	// Elapsed is how long the experiment took to run.
	Elapsed time.Duration
	// Metrics carries the machine-readable measurements behind Text —
	// what `inca-bench -json` writes to BENCH_<id>.json so results can be
	// compared across runs without scraping tables.
	Metrics []Metric
}

// Metric is one named measurement: a throughput (ops/sec) plus the
// latency distribution behind it, under a set of identifying labels
// (shard count, worker count, cache implementation, ...).
type Metric struct {
	// Name identifies the measured operation ("ingest", "query-exact").
	Name string `json:"name"`
	// Labels identify the configuration the measurement ran under.
	Labels map[string]string `json:"labels,omitempty"`
	// OpsPerSec is the measured throughput.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// P50/P95/P99 are latency percentiles in microseconds (0 = not
	// measured).
	P50Micros float64 `json:"p50_us,omitempty"`
	P95Micros float64 `json:"p95_us,omitempty"`
	P99Micros float64 `json:"p99_us,omitempty"`
	// Value carries a metric that is neither a rate nor a latency
	// (speedup factor, byte count), named by ValueUnit.
	Value     float64 `json:"value,omitempty"`
	ValueUnit string  `json:"value_unit,omitempty"`
}

// ResultFile is the file shape of a serialized Result — what
// BENCH_<id>.json holds, and what ValidateResultJSON decodes.
type ResultFile struct {
	ID        string   `json:"id"`
	Title     string   `json:"title"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Notes     []string `json:"notes,omitempty"`
	Metrics   []Metric `json:"metrics"`
	Text      string   `json:"text"`
}

// WriteJSON serializes the result for BENCH_<id>.json.
func (r Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ResultFile{
		ID:        r.ID,
		Title:     r.Title,
		ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
		Notes:     r.Notes,
		Metrics:   r.Metrics,
		Text:      r.Text,
	})
}

// String renders the result for the terminal.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s — %s (ran in %v)\n\n", strings.ToUpper(r.ID), r.Title, r.Elapsed.Round(time.Millisecond))
	sb.WriteString(r.Text)
	if len(r.Notes) > 0 {
		sb.WriteString("\nNotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&sb, "  - %s\n", n)
		}
	}
	return sb.String()
}

// timer wraps an experiment body with elapsed-time measurement.
func timed(id, title string, fn func(r *Result)) Result {
	r := Result{ID: id, Title: title}
	start := time.Now()
	fn(&r)
	r.Elapsed = time.Since(start)
	return r
}
