package depot

import (
	"bytes"
	"testing"

	"inca/internal/branch"
)

// A report body may carry comments and processing instructions, which the
// canonical renderer passes through verbatim — '<' and '>' inside them
// included. The fast paths must step over them, not count them as tags.
func TestFastPathsSkipCommentsAndPIsInReports(t *testing.T) {
	awkward := []byte(`<r><!-- <entry> </branch> > --><?pi <branch> ?><v>1</v></r>`)
	fast, ref := NewStreamCache(), NewStreamCacheGeneric()
	for _, id := range []string{"probe=b,site=s,vo=tg", "probe=a,site=s,vo=tg", "probe=c,site=s,vo=tg", "probe=b,site=s,vo=tg"} {
		for _, c := range []Cache{fast, ref} {
			if _, err := c.Update(branch.MustParse(id), awkward); err != nil {
				t.Fatalf("update %s: %v", id, err)
			}
		}
	}
	if !bytes.Equal(fast.Dump(), ref.Dump()) {
		t.Fatalf("fast splice diverged from the reference:\n fast %s\n  ref %s", fast.Dump(), ref.Dump())
	}
	got, err := collectReportsFast(fast.Dump(), branch.ID{})
	if err != nil || len(got) != 3 {
		t.Fatalf("collectReportsFast: %d reports, %v", len(got), err)
	}
}
