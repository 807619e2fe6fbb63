package depot

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
)

// Test helpers, shared under their exported names with the external test
// package (caches_test.go and the files beside it that hold the ablation
// caches to the contract).
var (
	ReportXMLFor = reportXMLFor
	MustUpdate   = mustUpdate
	ReportsEqual = reportsEqual
	PaddedReport = paddedReport
)

func reportXMLFor(tag, text string) []byte {
	return []byte(fmt.Sprintf("<%s><v>%s</v></%s>", tag, text, tag))
}

func mustUpdate(t *testing.T, c Cache, id string, payload []byte) {
	t.Helper()
	if _, err := c.Update(branch.MustParse(id), payload); err != nil {
		t.Fatalf("Update(%s): %v", id, err)
	}
}

func reportsEqual(a, b []Stored) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s Stored) string { return s.ID.String() + "\x00" + string(s.XML) }
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}

// paddedReport marshals a report of exactly size bytes, as the benchmark of
// record's generator does: every byte through the encoder, so canonical.
func paddedReport(tb testing.TB, size int) []byte {
	tb.Helper()
	build := func(pad int) []byte {
		r := report.New("bench.probe", "1.0", "bench.example.org", time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC))
		r.Body = report.Branch("bench", "probe",
			report.Branch("statistic", "sample", report.Leaf("seq", "00000042"), report.Leaf("units", "count")),
			report.Leaf("pad", strings.Repeat("x", pad)))
		data, err := report.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	data := build(size - len(build(0)))
	if len(data) != size {
		tb.Fatalf("report is %d bytes, want %d", len(data), size)
	}
	return data
}

// walSegmentName is the WAL segment file name, spelled out here rather than
// taken from the journal so the tests pin the on-disk layout.
func walSegmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// walSegments lists the sequences of the WAL segments in dir, ascending.
func walSegments(dir string) ([]uint64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, p := range paths {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%016d.log", &seq); err != nil {
			return nil, err
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
