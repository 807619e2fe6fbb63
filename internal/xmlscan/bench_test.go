package xmlscan_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/report"
	"inca/internal/xmlscan"
)

// BenchmarkSkipSubtree skips the whole cache document of the benchmark of
// record's working set: 32 sites x 32 probes of 851-byte reports under one
// VO, as one depot renders it (about 931 KB). It is the kernel under the
// federated merge's split (PlanCache, PlanReports) and the depot's
// document walks.
func BenchmarkSkipSubtree(b *testing.B) {
	r := report.New("bench.probe", "1.0", "bench.example.org", time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC))
	build := func(pad int) []byte {
		r.Body = report.Branch("bench", "probe",
			report.Branch("statistic", "sample", report.Leaf("seq", "00000000"), report.Leaf("units", "count")),
			report.Leaf("sent", "0000000000000000000"),
			report.Leaf("pad", strings.Repeat("x", pad)))
		data, err := report.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	data := build(1 + 851 - len(build(1)))
	cache := depot.NewIndexedCache()
	vo := branch.ID{}.Child("vo", "bench")
	for s := 0; s < 32; s++ {
		site := vo.Child("site", fmt.Sprintf("s%02d", s))
		for p := 0; p < 32; p++ {
			if _, err := cache.Update(site.Child("probe", fmt.Sprintf("p%02d", p)), data); err != nil {
				b.Fatal(err)
			}
		}
	}
	doc := cache.Dump()
	root, _, err := xmlscan.Next(doc, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		if end, err := xmlscan.SkipSubtree(doc, root); err != nil || end != len(doc) {
			b.Fatalf("SkipSubtree = %d, %v; want %d", end, err, len(doc))
		}
	}
}
