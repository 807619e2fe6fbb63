// Command bench is the repository's benchmark of record. It builds
// cmd/inca-server from the checkout, spawns it over loopback TCP in the
// configuration we would deploy, drives four workloads from this one
// generator process (three of them of record, in BENCHMARK.json), verifies
// the outputs and prints every metric by name and unit. See README.md for the workloads, the metrics and how they are
// expected to interact.
//
//	go run ./bench                                  all workloads, timed then traced
//	go run ./bench -workload ingest_small           one workload
//	go run ./bench -repeat 2                        run-to-run agreement check
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   (the driver's form)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 2004, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window in seconds (fixed-work workloads scale their work by it)")
		trace    = flag.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans to this file as JSON, keyed by workload")
		out      = flag.String("out", "", "write provenance and every run's metrics to this file as JSON (BASELINE.json is one)")
		repeat   = flag.Int("repeat", 1, "run the timed benchmark this many times and compare the runs against the bounds")
	)
	flag.Parse()
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *seconds < 1 || *repeat < 1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	// Each workload runs timed, then traced, unless -trace picks one; the
	// run-to-run comparison is of timed runs only.
	modes := []bool{false, true}
	switch {
	case *trace == 0 || *repeat > 1:
		modes = []bool{false}
	case *trace == 1:
		modes = []bool{true}
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Servers die with the benchmark on every exit path: normal return,
	// error, or a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.teardown()
		os.Exit(1)
	}()
	defer e.teardown()

	record := runRecord{Provenance: newProvenance(), Seed: *seed, Seconds: *seconds}
	fmt.Printf("provenance: %s\n", jsonString(record.Provenance))
	ok := true
	var last *runResult
	var timed [][]*runResult // per repeat, per workload
	spans := map[string][]span{}
	for rep := 0; rep < *repeat; rep++ {
		var results []*runResult
		for _, w := range selected {
			for _, traced := range modes {
				res, err := e.runWorkload(w, *seed, *seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 1
				}
				res.print(os.Stdout, traced)
				record.add(res, traced)
				if traced {
					spans[w.Name] = res.spans
				} else {
					results = append(results, res)
				}
				ok = ok && res.correct()
				last = res
			}
		}
		timed = append(timed, results)
	}
	if *repeat > 1 {
		ok = compareRepeats(os.Stdout, timed) && ok
	}
	if n := e.ps.leaked(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d inca-server processes leaked\n", n)
		ok = false
	}
	for path, v := range map[string]interface{}{*traceOut: spans, *out: record} {
		if path == "" {
			continue
		}
		if err := writeJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver reads the last line of standard output.
	fmt.Println(last.line())
	if !ok {
		return 1
	}
	return 0
}

// teardown kills every server and removes what the run left under workDir
// except the server binary, which the next run's build reuses.
func (e *env) teardown() {
	e.ps.killAll()
	os.RemoveAll(e.runDir)
}
