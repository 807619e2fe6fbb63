// Command inca-bench regenerates the paper's evaluation tables and figures
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
//
// Usage:
//
//	inca-bench -experiment all                 # everything, default scales
//	inca-bench -experiment table4 -hours 24    # one experiment, scaled up
//	inca-bench -experiment fig5 -days 7        # the paper's full week
//	inca-bench -experiment fig9 -ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"inca/internal/experiments"
	"inca/internal/loadgen"
)

// parseStages turns "-stages 1,2,4,8" into a validated ramp ("" keeps
// the default).
func parseStages(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -stages entry %q: %v", part, err)
		}
		out = append(out, n)
	}
	if err := loadgen.ValidateStages(out); err != nil {
		return nil, err
	}
	return out, nil
}

func main() {
	var (
		hours     = flag.Int("hours", 0, "virtual hours for table4/fig8 (0 = default)")
		days      = flag.Int("days", 0, "virtual days for fig5/fig6/fig7 (0 = default)")
		updates   = flag.Int("updates", 0, "steady-state updates per fig9/storage/replication cell (0 = default)")
		workers   = flag.Int("workers", 0, "concurrent submitters/readers for the query, storage and replication experiments (0 = default)")
		ablations = flag.Bool("ablations", false, "run fig9 design-choice ablations")
		seed      = flag.Int64("seed", 2004, "simulation seed")
		htmlOut   = flag.String("html", "", "also write the fig4 status page HTML here")
		out       = flag.String("out", "", "append results to this file as well as stdout")
		jsonDir   = flag.String("json", "", "write each result as machine-readable BENCH_<id>.json into this directory (\".\" for the working directory)")
		stages    = flag.String("stages", "", "load ramp as a comma-separated concurrency list, strictly increasing (default 1,2,4,8,16,32)")
		stageDur  = flag.Duration("stage-duration", 0, "measured window per load stage (0 = default 2s)")
		modes     = flag.String("modes", "", "load topologies, comma-separated: single, federated (default both)")
	)

	var results []experiments.Result
	run := func(r experiments.Result) { results = append(results, r) }
	// The one list of experiments: the dispatch, the -experiment help and
	// the unknown-name error all read it.
	table := []struct {
		name string
		do   func()
	}{
		{"all", func() {
			run(experiments.Table1())
			run(experiments.Table2())
			run(experiments.Table3())
			// Table 4 and Figure 8 measure the same replay; share one run.
			t4, responses := experiments.Table4WithResponses(experiments.Table4Options{Hours: *hours, Seed: *seed})
			run(t4)
			run(experiments.Fig4(experiments.Fig4Options{Seed: *seed, HTMLPath: *htmlOut}))
			run(experiments.Fig5(experiments.Fig5Options{Days: *days, Seed: *seed}))
			run(experiments.Fig6(experiments.Fig6Options{Days: *days, Seed: *seed}))
			run(experiments.Fig7(experiments.Fig7Options{Days: *days, Seed: *seed}))
			t4hours := *hours
			if t4hours <= 0 {
				t4hours = 6
			}
			run(experiments.Fig8FromResponses(responses, t4hours))
			run(experiments.Fig9(experiments.Fig9Options{UpdatesPerCell: *updates, Ablations: *ablations}))
		}},
		{"table1", func() { run(experiments.Table1()) }},
		{"table2", func() { run(experiments.Table2()) }},
		{"table3", func() { run(experiments.Table3()) }},
		{"table4", func() { run(experiments.Table4(experiments.Table4Options{Hours: *hours, Seed: *seed})) }},
		{"fig4", func() { run(experiments.Fig4(experiments.Fig4Options{Seed: *seed, HTMLPath: *htmlOut})) }},
		{"fig5", func() { run(experiments.Fig5(experiments.Fig5Options{Days: *days, Seed: *seed})) }},
		{"fig6", func() { run(experiments.Fig6(experiments.Fig6Options{Days: *days, Seed: *seed})) }},
		{"fig7", func() { run(experiments.Fig7(experiments.Fig7Options{Days: *days, Seed: *seed})) }},
		{"fig8", func() { run(experiments.Fig8(experiments.Fig8Options{Hours: *hours, Seed: *seed})) }},
		{"fig9", func() {
			run(experiments.Fig9(experiments.Fig9Options{UpdatesPerCell: *updates, Ablations: *ablations}))
		}},
		{"query", func() { run(experiments.Query(experiments.QueryOptions{Readers: *workers})) }},
		{"storage", func() { run(experiments.Storage(experiments.StorageOptions{Updates: *updates, Workers: *workers})) }},
		{"feed", func() { run(experiments.Feed(experiments.FeedOptions{})) }},
		{"replication", func() {
			run(experiments.Replication(experiments.ReplicationOptions{Messages: *updates, Workers: *workers}))
		}},
		{"load", func() {
			opt := experiments.LoadOptions{StageDuration: *stageDur}
			var err error
			if opt.Stages, err = parseStages(*stages); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if *modes != "" {
				opt.Modes = strings.Split(*modes, ",")
			}
			r, err := experiments.Load(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			run(r)
		}},
	}
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	experiment := flag.String("experiment", "all", "experiment to run: "+strings.Join(names, ", "))
	flag.Parse()
	i := slices.Index(names, strings.ToLower(*experiment))
	if i < 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (%s)\n", *experiment, strings.Join(names, ", "))
		os.Exit(2)
	}
	table[i].do()

	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.String())
		sb.WriteString("\n")
	}
	fmt.Print(sb.String())
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := f.WriteString(sb.String()); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *jsonDir, err)
			os.Exit(1)
		}
		for _, r := range results {
			path := filepath.Join(*jsonDir, "BENCH_"+r.ID+".json")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				os.Exit(1)
			}
			err = r.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}
