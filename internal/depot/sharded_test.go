package depot_test

import (
	"bytes"
	"fmt"
	"testing"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/experiments/ablation"
)

func TestShardedCacheSpreadsAcrossShards(t *testing.T) {
	c := ablation.NewShardedCacheDepth(8, 2)
	for site := 0; site < 32; site++ {
		id := fmt.Sprintf("probe=p,site=s%02d,vo=tg", site)
		depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", id))
	}
	// Dump stitches the shard documents under one root, so every shard
	// holding a site contributes its own vo=tg element.
	populated := bytes.Count(c.Dump(), []byte(`<branch name="vo" value="tg">`))
	if populated < 4 {
		t.Fatalf("32 sites landed on only %d of 8 shards", populated)
	}
	if c.Count() != 32 {
		t.Fatalf("Count = %d, want 32", c.Count())
	}
}

func TestShardedCacheRoutingIsStable(t *testing.T) {
	c := ablation.NewShardedCacheDepth(16, 2)
	// Identifiers sharing the most-general depth components co-locate: a
	// query at the shard depth reads one shard, and must find all three.
	ids := []string{
		"probe=p1,site=sdsc,vo=tg",
		"probe=p2,site=sdsc,vo=tg",
		"run=r9,probe=p1,site=sdsc,vo=tg",
	}
	for _, id := range ids {
		depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", id))
	}
	got, err := c.Reports(branch.MustParse("site=sdsc,vo=tg"))
	if err != nil || len(got) != len(ids) {
		t.Fatalf("site query found %d of %d reports (err %v): sibling or descendant routed to another shard", len(got), len(ids), err)
	}
}

func TestShardedCacheDeepQueryTouchesOneShard(t *testing.T) {
	c := ablation.NewShardedCacheDepth(4, 2)
	depot.MustUpdate(t, c, "probe=p1,site=sdsc,vo=tg", depot.ReportXMLFor("rep", "one"))
	sub, ok, err := c.Query(branch.MustParse("probe=p1,site=sdsc,vo=tg"))
	if err != nil || !ok || !bytes.Contains(sub, []byte("one")) {
		t.Fatalf("deep query: ok=%v err=%v %s", ok, err, sub)
	}
	// A shallow prefix merges subtrees from every shard holding children.
	for site := 0; site < 8; site++ {
		id := fmt.Sprintf("probe=p1,site=s%d,vo=tg", site)
		depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", fmt.Sprintf("s%d", site)))
	}
	sub, ok, err = c.Query(branch.MustParse("vo=tg"))
	if err != nil || !ok {
		t.Fatalf("prefix query: ok=%v err=%v", ok, err)
	}
	for site := 0; site < 8; site++ {
		if !bytes.Contains(sub, []byte(fmt.Sprintf("s%d", site))) {
			t.Fatalf("merged prefix missing site %d: %s", site, sub)
		}
	}
}

func TestShardedCacheDumpMergesToCanonical(t *testing.T) {
	c := ablation.NewShardedCacheDepth(5, 1)
	ids := []string{
		"r=a,vo=one", "r=b,vo=one", "r=a,vo=two",
		"r=a,vo=three", "r=a,vo=four", "r=a,vo=five",
	}
	for _, id := range ids {
		depot.MustUpdate(t, c, id, depot.ReportXMLFor("rep", id))
	}
	// The stitched dump reloads into a canonical single document holding
	// every entry exactly once.
	re, err := depot.LoadDump(c.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != len(ids) {
		t.Fatalf("reloaded count = %d, want %d", re.Count(), len(ids))
	}
	for _, id := range ids {
		stored, err := re.Reports(branch.MustParse(id))
		if err != nil || len(stored) != 1 {
			t.Fatalf("reloaded %s: %d entries, err %v", id, len(stored), err)
		}
	}
}

func TestShardedCacheSingleShardDegeneratesToStream(t *testing.T) {
	sharded := ablation.NewShardedCache(1)
	stream := depot.NewStreamCache()
	ids := []string{"r=b,s=2", "r=a,s=1", "r=c,s=1"}
	for _, id := range ids {
		depot.MustUpdate(t, sharded, id, depot.ReportXMLFor("rep", id))
		depot.MustUpdate(t, stream, id, depot.ReportXMLFor("rep", id))
	}
	if !bytes.Equal(sharded.Dump(), stream.Dump()) {
		t.Fatalf("1-shard dump diverges from StreamCache:\n%s\nvs\n%s",
			sharded.Dump(), stream.Dump())
	}
}

func TestShardedCacheConcurrent(t *testing.T) {
	depot.HammerCache(t, ablation.NewShardedCacheDepth(8, 2))
}

func TestShardedCacheConcurrentSingleShard(t *testing.T) {
	// The degenerate 1-shard case funnels every writer through one lock —
	// the contention shape the tentpole removes — and must still be safe.
	depot.HammerCache(t, ablation.NewShardedCache(1))
}
