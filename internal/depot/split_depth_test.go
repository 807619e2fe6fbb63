package depot_test

import (
	"bytes"
	"encoding/xml"
	"io"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

func TestSplitCacheDepth2(t *testing.T) {
	c := ablation.NewSplitCacheDepth(2)
	depot.MustUpdate(t, c, "r=1,site=a,vo=tg", depot.ReportXMLFor("rep", "A"))
	depot.MustUpdate(t, c, "r=1,site=b,vo=tg", depot.ReportXMLFor("rep", "B"))
	depot.MustUpdate(t, c, "vo=tg", depot.ReportXMLFor("rep", "I")) // interior, shallow shard
	if c.Shards() != 3 {
		t.Fatalf("shards = %d", c.Shards())
	}
	// Shallow prefix spans shards.
	got, err := c.Reports(branch.MustParse("vo=tg"))
	if err != nil || len(got) != 3 {
		t.Fatalf("reports = %d %v", len(got), err)
	}
	sub, ok, err := c.Query(branch.MustParse("vo=tg"))
	if err != nil || !ok {
		t.Fatalf("query: %v %v", ok, err)
	}
	for _, want := range []string{">A<", ">B<", ">I<"} {
		if !bytes.Contains(sub, []byte(want)) {
			t.Fatalf("merged subtree missing %s:\n%s", want, sub)
		}
	}
	// Merged subtree must still be well-formed.
	dec := xml.NewDecoder(bytes.NewReader(sub))
	for {
		if _, err := dec.Token(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("merged subtree malformed: %v\n%s", err, sub)
		}
	}
	// Deep query still exact.
	sub, ok, _ = c.Query(branch.MustParse("site=a,vo=tg"))
	if !ok || !bytes.Contains(sub, []byte(">A<")) || bytes.Contains(sub, []byte(">B<")) {
		t.Fatalf("deep query wrong: %s", sub)
	}
}
