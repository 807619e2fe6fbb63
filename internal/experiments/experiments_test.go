package experiments

import (
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	r := Table1()
	if !strings.Contains(r.Text, "Lines of Code") || !strings.Contains(r.Text, "Total") {
		t.Fatalf("table1:\n%s", r.Text)
	}
	// The dominant sub-50 bucket and the >1000-line tail must both exist.
	if !strings.Contains(r.Text, "0-50") {
		t.Fatal("missing 0-50 bucket")
	}
	found := false
	for _, line := range strings.Split(r.Text, "\n") {
		if strings.HasPrefix(line, "1") && strings.Contains(line, "-1") { // 1250-1300 etc.
			found = true
		}
	}
	if !found {
		t.Fatalf("missing >1000-line tail:\n%s", r.Text)
	}
}

func TestTable2ExactCounts(t *testing.T) {
	r := Table2()
	for _, want := range []string{"136", "128", "71", "1060", "tg-login1.caltech.teragrid.org"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("table2 missing %q:\n%s", want, r.Text)
		}
	}
}

func TestTable3ListsMachines(t *testing.T) {
	r := Table3()
	for _, want := range []string{"inca.sdsc.edu", "Intel Itanium 2", "this run"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("table3 missing %q:\n%s", want, r.Text)
		}
	}
}

func TestTable4OneHour(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment replay")
	}
	r := Table4(Table4Options{Hours: 1, Seed: 3})
	for _, want := range []string{"0-4 KB", "40-50 KB", "mean", "median", "number of updates",
		"reports received: 1060"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("table4 missing %q:\n%s", want, r.Text)
		}
	}
	if !strings.Contains(r.Text, "steady-state cache size") {
		t.Fatal("missing cache size line")
	}
}

func TestFig4SummaryPage(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment replay")
	}
	dir := t.TempDir()
	r := Fig4(Fig4Options{Seed: 3, HTMLPath: dir + "/fig4.html"})
	for _, want := range []string{"Expanded View of Errors", "globus: unit test",
		"gatekeeper not responding", "pieces of data compared and verified"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("fig4 missing %q:\n%s", want, r.Text)
		}
	}
	foundNote := false
	for _, n := range r.Notes {
		if strings.Contains(n, "HTML rendering written") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Fatalf("HTML not written: %v", r.Notes)
	}
}

func TestFig6BandwidthSeries(t *testing.T) {
	r := Fig6(Fig6Options{Days: 2, Seed: 3})
	if !strings.Contains(r.Text, "Mbps") || !strings.Contains(r.Text, "*") {
		t.Fatalf("fig6:\n%s", r.Text)
	}
	if !strings.Contains(r.Text, "measurements: 48") {
		t.Fatalf("fig6 measurement count:\n%s", r.Text)
	}
}

func TestFig7UsageHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("week replay")
	}
	r := Fig7(Fig7Options{Days: 1, Seed: 3})
	for _, want := range []string{"CPU utilization", "Memory utilization", "samples below 2% per CPU",
		"samples below 107 MB", "reporter executions"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("fig7 missing %q:\n%s", want, r.Text)
		}
	}
}

func TestFig8Histogram(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment replay")
	}
	r := Fig8(Fig8Options{Hours: 1, Seed: 3})
	if !strings.Contains(r.Text, "% of reports were smaller than 10 KB") {
		t.Fatalf("fig8:\n%s", r.Text)
	}
}

func TestFig9SmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic workload")
	}
	// A reduced sweep via the cell helper: one small and one large cache.
	r := Fig9(Fig9Options{UpdatesPerCell: 3})
	for _, want := range []string{"0.9 MB", "5.3 MB", "45527", "unpack (ms)"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("fig9 missing %q:\n%s", want, r.Text)
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "t", Text: "body\n", Notes: []string{"note"}}
	s := r.String()
	for _, want := range []string{"=== X", "body", "Notes:", "note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}

func TestFig5OneDay(t *testing.T) {
	if testing.Short() {
		t.Skip("day-long replay")
	}
	r := Fig5(Fig5Options{Days: 1, Seed: 3})
	for _, want := range []string{
		"Grid availability on tg-login1.sdsc.teragrid.org",
		"samples: 144",
		"outside maintenance windows",
	} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("fig5 missing %q:\n%s", want, r.Text)
		}
	}
}
