package ablation

import (
	"bytes"
	"sort"
	"strings"
	"sync"

	"inca/internal/branch"
	"inca/internal/depot"
)

var _ depot.Cache = (*SplitCache)(nil)

// SplitCache shards the cache by its most general branch components —
// the paper's planned scalability improvement: "the cache will be split
// into multiple smaller files to minimize XML parsing time". Each shard is
// an independent StreamCache, so an update streams only its shard.
type SplitCache struct {
	mu     sync.RWMutex
	depth  int
	shards map[string]*StreamCache
}

// NewSplitCache returns an empty cache sharded on the single most general
// component (one file per VO, typically).
func NewSplitCache() *SplitCache { return NewSplitCacheDepth(1) }

// NewSplitCacheDepth shards on up to depth most-general components (e.g.
// depth 2 gives one file per vo/site pair).
func NewSplitCacheDepth(depth int) *SplitCache {
	if depth < 1 {
		depth = 1
	}
	return &SplitCache{depth: depth, shards: make(map[string]*StreamCache)}
}

// shardKey derives the shard from the identifier's most general components.
func (c *SplitCache) shardKey(id branch.ID) string {
	path := id.Path()
	if len(path) > c.depth {
		path = path[:c.depth]
	}
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = p.Name + "=" + p.Value
	}
	return strings.Join(parts, "/")
}

func (c *SplitCache) shard(id branch.ID, create bool) *StreamCache {
	key := c.shardKey(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.shards[key]
	if !ok && create {
		s = NewStreamCache()
		c.shards[key] = s
	}
	return s
}

// Update implements Cache.
func (c *SplitCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	return c.shard(id, true).Update(id, reportXML)
}

// shardsForPrefix returns the shards that can hold data under prefix, in
// shard-key order. A prefix shallower than the shard depth spans several
// shards.
func (c *SplitCache) shardsForPrefix(prefix branch.ID) []*StreamCache {
	if prefix.IsRoot() {
		return c.orderedShards()
	}
	key := c.shardKey(prefix)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if prefix.Depth() >= c.depth {
		if s, ok := c.shards[key]; ok {
			return []*StreamCache{s}
		}
		return nil
	}
	var keys []string
	for k := range c.shards {
		if k == key || strings.HasPrefix(k, key+"/") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*StreamCache, len(keys))
	for i, k := range keys {
		out[i] = c.shards[k]
	}
	return out
}

// Query implements Cache. Root queries concatenate every shard under a
// synthetic <cache> root; prefixes shallower than the shard depth merge
// the matching shards' subtrees.
func (c *SplitCache) Query(id branch.ID) ([]byte, bool, error) {
	if id.IsRoot() {
		return c.Dump(), true, nil
	}
	return mergeShardQuery(c.shardsForPrefix(id), id)
}

// mergeShardQuery answers a non-root query spanning several shards: each
// shard holds a disjoint set of children under the queried node, so the
// merged answer emits the node's branch element once with every shard's
// children inside.
func mergeShardQuery(shards []*StreamCache, id branch.ID) ([]byte, bool, error) {
	if len(shards) == 0 {
		return nil, false, nil
	}
	if len(shards) == 1 {
		return shards[0].Query(id)
	}
	var buf bytes.Buffer
	found := false
	var open, close []byte
	for _, s := range shards {
		sub, ok, err := s.Query(id)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		gt := bytes.IndexByte(sub, '>')
		lastLt := bytes.LastIndexByte(sub, '<')
		if gt < 0 || lastLt <= gt {
			continue
		}
		if !found {
			open = sub[:gt+1]
			close = sub[lastLt:]
			found = true
		}
		buf.Write(sub[gt+1 : lastLt])
	}
	if !found {
		return nil, false, nil
	}
	out := make([]byte, 0, len(open)+buf.Len()+len(close))
	out = append(out, open...)
	out = append(out, buf.Bytes()...)
	out = append(out, close...)
	return out, true, nil
}

// Reports implements Cache.
func (c *SplitCache) Reports(prefix branch.ID) ([]depot.Stored, error) {
	var out []depot.Stored
	for _, s := range c.shardsForPrefix(prefix) {
		part, err := s.Reports(prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

func (c *SplitCache) orderedShards() []*StreamCache {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.shards))
	for k := range c.shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*StreamCache, len(keys))
	for i, k := range keys {
		out[i] = c.shards[k]
	}
	return out
}

// Dump implements Cache.
func (c *SplitCache) Dump() []byte {
	var buf bytes.Buffer
	buf.WriteString("<cache>")
	for _, s := range c.orderedShards() {
		d := s.Dump()
		// Strip each shard's <cache> wrapper.
		d = bytes.TrimPrefix(d, []byte("<cache>"))
		d = bytes.TrimSuffix(d, []byte("</cache>"))
		buf.Write(d)
	}
	buf.WriteString("</cache>")
	return buf.Bytes()
}

// Size implements Cache: total bytes across shards.
func (c *SplitCache) Size() int {
	total := 0
	for _, s := range c.orderedShards() {
		total += s.Size()
	}
	return total
}

// Count implements Cache.
func (c *SplitCache) Count() int {
	total := 0
	for _, s := range c.orderedShards() {
		total += s.Count()
	}
	return total
}

// Shards returns the number of shard documents.
func (c *SplitCache) Shards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.shards)
}

// Generation implements Cache: the sum of the shard generations, which
// strictly increases with every successful update.
func (c *SplitCache) Generation() uint64 {
	var total uint64
	for _, s := range c.orderedShards() {
		total += s.Generation()
	}
	return total
}
