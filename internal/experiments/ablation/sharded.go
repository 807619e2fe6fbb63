package ablation

import (
	"bytes"

	"inca/internal/branch"
	"inca/internal/depot"
)

var _ depot.Cache = (*ShardedCache)(nil)

// ShardedCache hashes each branch identifier onto one of N independent
// StreamCache shards, each with its own lock — the concurrent-ingest
// counterpart of SplitCache. Where SplitCache opens one document per
// most-general component group (so the shard population follows the data),
// ShardedCache fixes the shard count up front so that writers for
// different identifiers contend on different locks and each update streams
// a document ~1/N the total size. Section 5.2's scaling wall (insert cost
// linear in document size, all writers serialized on one document) falls
// on both axes at once.
//
// Hashing uses the identifier's most-general depth components (like
// controller.ShardedDepot), so an entire vo/site subtree lands on one
// shard and queries at or below the shard depth touch a single document.
// Shallower queries and Dump stitch the shards back into one view.
type ShardedCache struct {
	shards []*depot.StreamCache
	depth  int
}

// NewShardedCache returns a cache with n shards hashed on the single
// most-general branch component.
func NewShardedCache(n int) *ShardedCache { return NewShardedCacheDepth(n, 1) }

// NewShardedCacheDepth returns a cache with n shards hashed on up to depth
// most-general components (depth 2 spreads vo/site pairs across shards).
func NewShardedCacheDepth(n, depth int) *ShardedCache {
	if n < 1 {
		n = 1
	}
	if depth < 1 {
		depth = 1
	}
	c := &ShardedCache{shards: make([]*depot.StreamCache, n), depth: depth}
	for i := range c.shards {
		c.shards[i] = depot.NewStreamCache()
	}
	return c
}

// Shards returns the shard count.
func (c *ShardedCache) Shards() int { return len(c.shards) }

// shardFor maps an identifier to its shard index by hashing the
// most-general depth components (FNV-1a with an avalanche finalizer, as
// small moduli correlate badly with FNV's trailing-byte linearity).
func (c *ShardedCache) shardFor(id branch.ID) int {
	path := id.Path()
	if len(path) > c.depth {
		path = path[:c.depth]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range path {
		for i := 0; i < len(p.Name); i++ {
			h = (h ^ uint64(p.Name[i])) * prime64
		}
		h *= prime64 // NUL separator
		for i := 0; i < len(p.Value); i++ {
			h = (h ^ uint64(p.Value[i])) * prime64
		}
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(len(c.shards)))
}

// Update implements Cache. Writers for identifiers on different shards
// proceed in parallel; only same-shard writers serialize.
func (c *ShardedCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	return c.shards[c.shardFor(id)].Update(id, reportXML)
}

// Query implements Cache. At or below the shard depth the identifier names
// exactly one shard; shallower prefixes merge the matching subtree from
// every shard (each shard holds a disjoint child set under the prefix,
// because deeper components decide the hash).
func (c *ShardedCache) Query(id branch.ID) ([]byte, bool, error) {
	if id.IsRoot() {
		return c.Dump(), true, nil
	}
	if id.Depth() >= c.depth {
		return c.shards[c.shardFor(id)].Query(id)
	}
	return mergeShardQuery(c.shards, id)
}

// Reports implements Cache.
func (c *ShardedCache) Reports(prefix branch.ID) ([]depot.Stored, error) {
	if prefix.Depth() >= c.depth {
		return c.shards[c.shardFor(prefix)].Reports(prefix)
	}
	var out []depot.Stored
	for _, s := range c.shards {
		part, err := s.Reports(prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

// Dump implements Cache: the shards' documents stitched under one root,
// in shard-index order (the same stitching SplitCache performs; consumers
// reassemble a canonical single document with depot.LoadDump).
func (c *ShardedCache) Dump() []byte {
	var buf bytes.Buffer
	buf.WriteString("<cache>")
	for _, s := range c.shards {
		d := s.Dump()
		d = bytes.TrimPrefix(d, []byte("<cache>"))
		d = bytes.TrimSuffix(d, []byte("</cache>"))
		buf.Write(d)
	}
	buf.WriteString("</cache>")
	return buf.Bytes()
}

// Size implements Cache: total bytes across shards.
func (c *ShardedCache) Size() int {
	total := 0
	for _, s := range c.shards {
		total += s.Size()
	}
	return total
}

// Count implements Cache.
func (c *ShardedCache) Count() int {
	total := 0
	for _, s := range c.shards {
		total += s.Count()
	}
	return total
}

// Generation implements Cache: the sum of the shard generations, which
// strictly increases with every successful update.
func (c *ShardedCache) Generation() uint64 {
	var total uint64
	for _, s := range c.shards {
		total += s.Generation()
	}
	return total
}
