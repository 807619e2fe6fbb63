package depot

import (
	"bytes"
	"encoding/xml"
	"sync"

	"inca/internal/branch"
	"inca/internal/metrics"
)

// IndexedCache is the read-path answer to Section 5.2's scaling wall. The
// deployed depot answers every consumer query by scanning one monolithic
// XML document with a SAX parser, so both Query and Reports pay
// O(document) regardless of how little they return, and every update pays
// a full-document splice. IndexedCache inverts the representation: the
// index — a component trie sorted in canonical (name, value) order, exact
// lookups served through a map keyed on the identifier's path — is the
// source of truth, and the canonical <cache> document is a *derived*
// artifact, materialized lazily only when Dump() or a root Query() needs
// it and invalidated by a generation counter.
//
// Costs:
//
//   - Update: O(report) — settle the canonical entry payload (one scan for
//     a report already canonical), hang it on the trie, bump the
//     generation. No document splice.
//   - Query(exact id): O(subtree) — serialize just that node; O(report)
//     for a leaf.
//   - Reports(prefix): O(results) — walk only the prefix subtree.
//   - Dump() / root Query(): O(document) the first time after a write,
//     O(document copy) on every repeat while the cache is unchanged.
//
// The materialized document is byte-identical to what the paper's stream
// cache (internal/experiments/ablation) produces for the same insert
// sequence: node children are kept in the same (name, value) order, entry
// payloads come from the same admission (EntryPayload), and branch open
// tags are rendered through the same encoder, so the equivalence tests
// compare dumps byte-for-byte.
type IndexedCache struct {
	mu    sync.RWMutex
	root  *idxNode
	byKey map[string]*idxNode // exact-path lookup: pathKey(id) → node
	count int
	size  int // exact length of the canonical document
	gen   uint64

	doc    []byte // lazily materialized canonical document
	docGen uint64 // generation doc was built at

	// fallbacks counts reports Update had to tokenise; nil until newDepot
	// hands over its counter, before anything is stored.
	fallbacks *metrics.Counter
}

// idxNode is one branch element in the trie.
type idxNode struct {
	pair     branch.Pair
	open     []byte     // canonical "<branch name=.. value=..>" bytes
	payload  []byte     // canonical entry payload (nil = no entry here)
	children []*idxNode // sorted by (name, value)
	subtree  int        // serialized size of this node's subtree in bytes
}

const (
	cacheOpenClose = len("<cache></cache>")
	entryWrapLen   = len("<entry></entry>")
	branchCloseLen = len("</branch>")
)

// NewIndexedCache returns an empty indexed cache.
func NewIndexedCache() *IndexedCache {
	return &IndexedCache{
		root:  &idxNode{},
		byKey: make(map[string]*idxNode),
		size:  cacheOpenClose,
		doc:   []byte("<cache></cache>"),
	}
}

// pathKey is the map key for an identifier: its general→specific path with
// NUL separators (names and values cannot contain NUL — they come from
// parsed XML attributes or branch.Parse).
func pathKey(path []branch.Pair) string {
	n := 0
	for _, p := range path {
		n += len(p.Name) + len(p.Value) + 2
	}
	var sb bytes.Buffer
	sb.Grow(n)
	for _, p := range path {
		sb.WriteString(p.Name)
		sb.WriteByte(0)
		sb.WriteString(p.Value)
		sb.WriteByte(0)
	}
	return sb.String()
}

// renderBranchOpen produces the canonical open tag for a component through
// the same encoder the stream cache's splice uses, so attribute escaping
// (and therefore the materialized document) matches byte-for-byte.
func renderBranchOpen(p branch.Pair) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	start := xml.StartElement{
		Name: xml.Name{Local: "branch"},
		Attr: []xml.Attr{
			{Name: xml.Name{Local: "name"}, Value: p.Name},
			{Name: xml.Name{Local: "value"}, Value: p.Value},
		},
	}
	// The encoder never self-closes: the flushed start token is the open tag.
	if err := enc.EncodeToken(start); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// child finds (or creates) the child of n for pair p, keeping children in
// canonical (name, value) order. It reports whether the node was created.
func (n *idxNode) child(p branch.Pair, create bool) (*idxNode, bool, error) {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := (lo + hi) / 2
		c := n.children[mid].pair
		if c.Name < p.Name || (c.Name == p.Name && c.Value < p.Value) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.children) && n.children[lo].pair == p {
		return n.children[lo], false, nil
	}
	if !create {
		return nil, false, nil
	}
	open, err := renderBranchOpen(p)
	if err != nil {
		return nil, false, err
	}
	c := &idxNode{pair: p, open: open, subtree: len(open) + branchCloseLen}
	n.children = append(n.children, nil)
	copy(n.children[lo+1:], n.children[lo:])
	n.children[lo] = c
	return c, true, nil
}

// Update implements Cache: O(report) — no document splice. The canonical
// payload is settled up front so a malformed report never mutates the
// index; for a report already canonical that is one scan, and the copy
// onto the trie below is the only time its bytes are touched.
func (c *IndexedCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	payload, err := EntryPayload(reportXML, c.fallbacks)
	if err != nil {
		return false, err
	}
	path := id.Path()

	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.root
	touched := make([]*idxNode, 0, len(path)+1)
	created := make([]bool, 0, len(path)+1)
	touched = append(touched, n)
	created = append(created, false)
	for _, p := range path {
		ch, fresh, err := n.child(p, true)
		if err != nil {
			return false, err
		}
		n = ch
		touched = append(touched, n)
		created = append(created, fresh)
	}
	added := n.payload == nil
	inc := len(payload) - len(n.payload)
	if added {
		c.count++
		inc += entryWrapLen
	}
	n.payload = append([]byte(nil), payload...)
	// Propagate size growth leaf→root: each node's subtree grows by the
	// entry delta plus the shells of nodes created strictly below it (a
	// created node's own shell was counted at creation and belongs to its
	// parent's increment).
	for i := len(touched) - 1; i >= 0; i-- {
		touched[i].subtree += inc
		if created[i] {
			inc += len(touched[i].open) + branchCloseLen
		}
	}
	c.size += inc
	c.gen++
	c.byKey[pathKey(path)] = n
	return added, nil
}

// writeTo appends the canonical serialization of n's subtree.
func (n *idxNode) writeTo(buf *bytes.Buffer) {
	buf.Write(n.open)
	if n.payload != nil {
		buf.WriteString("<entry>")
		buf.Write(n.payload)
		buf.WriteString("</entry>")
	}
	for _, ch := range n.children {
		ch.writeTo(buf)
	}
	buf.WriteString("</branch>")
}

// materializeLocked rebuilds the canonical document; callers hold c.mu for
// writing.
func (c *IndexedCache) materializeLocked() {
	var buf bytes.Buffer
	buf.Grow(c.size)
	buf.WriteString("<cache>")
	if c.root.payload != nil {
		buf.WriteString("<entry>")
		buf.Write(c.root.payload)
		buf.WriteString("</entry>")
	}
	for _, ch := range c.root.children {
		ch.writeTo(&buf)
	}
	buf.WriteString("</cache>")
	c.doc = buf.Bytes()
	c.docGen = c.gen
}

// Dump implements Cache: the lazily materialized canonical document.
// While the cache is unchanged, repeat dumps only pay the copy.
func (c *IndexedCache) Dump() []byte {
	c.mu.RLock()
	if c.docGen == c.gen {
		out := append([]byte(nil), c.doc...)
		c.mu.RUnlock()
		return out
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.docGen != c.gen {
		c.materializeLocked()
	}
	return append([]byte(nil), c.doc...)
}

// Query implements Cache. Exact and prefix identifiers serialize only the
// named subtree — O(report) for a leaf; the root identifier returns the
// materialized document.
func (c *IndexedCache) Query(id branch.ID) ([]byte, bool, error) {
	if id.IsRoot() {
		return c.Dump(), true, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.lookupLocked(id.Path())
	if !ok {
		return nil, false, nil
	}
	var buf bytes.Buffer
	buf.Grow(n.subtree)
	n.writeTo(&buf)
	return buf.Bytes(), true, nil
}

// lookupLocked resolves a general→specific path; callers hold c.mu.
func (c *IndexedCache) lookupLocked(path []branch.Pair) (*idxNode, bool) {
	if n, ok := c.byKey[pathKey(path)]; ok {
		return n, true
	}
	// Interior nodes created as ancestors of stored identifiers are
	// queryable too but have no byKey entry; walk the trie.
	n := c.root
	for _, p := range path {
		ch, _, _ := n.child(p, false)
		if ch == nil {
			return nil, false
		}
		n = ch
	}
	return n, true
}

// Reports implements Cache: O(results) — only the prefix subtree is
// walked, in canonical document order (node entry before children).
func (c *IndexedCache) Reports(prefix branch.ID) ([]Stored, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	start := c.root
	if !prefix.IsRoot() {
		n, ok := c.lookupLocked(prefix.Path())
		if !ok {
			return nil, nil
		}
		start = n
	}
	var out []Stored
	var walk func(n *idxNode, id branch.ID)
	walk = func(n *idxNode, id branch.ID) {
		if n.payload != nil {
			out = append(out, Stored{ID: id, XML: append([]byte(nil), n.payload...)})
		}
		for _, ch := range n.children {
			walk(ch, id.Child(ch.pair.Name, ch.pair.Value))
		}
	}
	walk(start, prefix)
	return out, nil
}

// Size implements Cache: the exact canonical-document length, maintained
// incrementally so it never forces a materialization.
func (c *IndexedCache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size
}

// Count implements Cache.
func (c *IndexedCache) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.count
}

// Generation implements Cache: it increases on every successful
// Update. The HTTP layer derives ETags from it; equal generations imply a
// byte-identical canonical document.
func (c *IndexedCache) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}
