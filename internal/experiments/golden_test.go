package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
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

// golden holds r, normalized, to testdata/name.golden.
func golden(t *testing.T, name string, r Result) {
	t.Helper()
	got := normalize(r.String())
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
