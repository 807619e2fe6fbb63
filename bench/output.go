package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the issue's 30 s windows.
// The driver makes 4 runs and 22 more per listed workload, with two builds,
// inside 3420 s; three listed workloads at 34 to 43 s a run all told fit
// with a fifth to spare.
const defaultSeconds = 30

func jsonString(v interface{}) string { return string(mustJSON(v)) }

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runRecord is the -out file: where and how a set of numbers was taken,
// and the numbers.
type runRecord struct {
	Provenance provenance  `json:"provenance"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Runs       []recordRun `json:"runs"`
}

type recordRun struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	resultLine
}

func (rec *runRecord) add(r *runResult, traced bool) {
	rec.Runs = append(rec.Runs, recordRun{r.workload.Name, traced, r.resultLine()})
}

// print writes one run for a reader: the metrics in spec order, then every
// output check that failed.
func (r *runResult) print(out io.Writer, traced bool) {
	kind, specs := "timed", endToEnd
	if traced {
		kind, specs = "traced", perLayer
	}
	fmt.Fprintf(out, "\n%s (%s run, seed %d): attempted %d, failed %d, failed_share %.6f, correct %v\n",
		r.workload.Name, kind, r.seed, r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)), r.correct())
	r.printTable(out, specs)
	if traced {
		fmt.Fprintln(out, "  spans (benchmark side): name, count, total, self")
		for _, t := range selfTimes(r.spans) {
			fmt.Fprintf(out, "    %-22s %8d %12s %12s\n", t.Name, t.Count, t.Total, t.Self)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

// compareRepeats prints, per workload and end-to-end metric, the values of
// the first two repeats, how much worse the second is than the first as a
// share of the first, and the bound. It reports whether every pair agrees
// within its bound in either direction: the two runs are of the same code.
func compareRepeats(out io.Writer, repeats [][]*runResult) bool {
	ok := true
	fmt.Fprintf(out, "\nrun-to-run agreement (repeat 1 vs repeat 2)\n")
	for i, first := range repeats[0] {
		second := repeats[1][i]
		fmt.Fprintf(out, "%s\n", first.workload.Name)
		for _, m := range endToEnd {
			a, b := first.metrics[m.Name].Value, second.metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "  %-24s %14.4f %14.4f %-5s diff %6.2f%%  bound %5.1f%%  %s\n",
				m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"` // no bound: a zero Bound is omitted
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON renders the contract in spec.go as BENCHMARK.json.
func benchmarkJSON() string {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if !w.unlisted {
			f.Workloads = append(f.Workloads, workloadJSON{w.Name, w.Why})
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}
