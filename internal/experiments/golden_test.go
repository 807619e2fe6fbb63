package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The virtual-clock figures are pinned: each test that regenerates one
// compares the whole result, notes included, with its file under
// testdata/, so a change that moves any number of a paper figure fails
// here. `go test ./internal/experiments -update` rewrites the files.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var (
	// ranIn is the wall time a result's title line reports.
	ranIn = regexp.MustCompile(`\(ran in [^)]*\)`)
	// thisMachine is Table 3's row for the host the test runs on.
	thisMachine = regexp.MustCompile(`(?m)^.* \(this run\) .*$`)
	// responseTimes are Table 4's rows of measured response times (ms);
	// the update counts below them are the replay's and stay.
	responseTimes = regexp.MustCompile(`(?m)^(mean|std|min|max|median)( +)[-0-9. ]+$`)
	// htmlPath is where Figure 4's page was written: a temporary directory.
	htmlPath = regexp.MustCompile(`HTML rendering written to \S+`)
)

// normalize masks what differs between two runs of one virtual clock:
// wall time, the host's own Table 3 row, Table 4's measured response times
// and the path Figure 4's page went to.
func normalize(s string) string {
	s = ranIn.ReplaceAllString(s, "(ran in …)")
	s = thisMachine.ReplaceAllString(s, "<this machine> (this run)")
	s = responseTimes.ReplaceAllString(s, "$1$2<measured>")
	return htmlPath.ReplaceAllString(s, "HTML rendering written to <path>")
}

// bands hold the paper's own figures, where a test-sized run shows them,
// as bounds the result must keep. They live here and not in testdata, so
// -update cannot move them: a change that takes the reproduction away from
// the paper fails even once its golden file is rewritten.
var bands = map[string]func(t *testing.T, text string){
	// Figure 4: "over 900" pieces of data verified on the status page.
	"fig4": func(t *testing.T, text string) {
		m := regexp.MustCompile(`(?m)^(\d+) pieces of data compared and verified`).FindStringSubmatch(text)
		if m == nil {
			t.Error("fig4 counts no pieces of data verified")
		} else if n, _ := strconv.Atoi(m[1]); n <= 900 {
			t.Errorf("fig4 verifies %d pieces of data, the paper over 900", n)
		}
	},
	// Table 4: 97 % of the paper's updates are 0-4 KB; here at least 90 %.
	"table4": func(t *testing.T, text string) {
		m := regexp.MustCompile(`(?m)^number of updates +([\d ]+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Error("table4 has no row of update counts")
			return
		}
		small, total := 0, 0
		for i, f := range strings.Fields(m[1]) {
			n, _ := strconv.Atoi(f)
			if i == 0 {
				small = n
			}
			total += n
		}
		if total == 0 || small*10 < total*9 {
			t.Errorf("table4: %d of %d updates in the 0-4 KB bucket, the paper 97 %%, the band 90 %%", small, total)
		}
	},
}

// golden holds r, normalized, to testdata/name.golden, and to its band
// when it has one.
func golden(t *testing.T, name string, r Result) {
	t.Helper()
	got := normalize(r.String())
	if band := bands[name]; band != nil {
		band(t, got)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s differs from %s at line %d:\n got %q\nwant %q", name, path, i+1, g, w)
		}
	}
}
