package depot

import (
	"bytes"
	"encoding/xml"
	"sync"

	"inca/internal/branch"
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
//   - Reports(prefix): O(results) — walk only the prefix subtree and hand
//     out each node's payload and rendered identifier as they are.
//   - Dump() / root Query(): O(document) the first time after a write,
//     O(1) on every repeat while the cache is unchanged.
//
// What a read returns is shared and read-only: insert gives a node a new
// payload rather than editing the old one, and materializeLocked builds a
// new document rather than rewriting the old one, so a slice a reader
// holds keeps its bytes whatever the writers do next.
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
	byKey map[string]*idxNode // exact-path lookup: appendPathKey(id) → node
	count int
	size  int // exact length of the canonical document
	gen   uint64

	doc    []byte  // lazily materialized canonical document
	docGen uint64  // generation doc was built at
	ends   [][]int // doc's branch ends by depth (see writeTo), from the same render
}

// idxNode is one branch element in the trie.
type idxNode struct {
	pair     branch.Pair
	id       branch.ID  // the node's full identifier
	attr     []byte     // id as an attribute value (Stored.Attr)
	open     []byte     // canonical "<branch name=.. value=..>" bytes
	payload  []byte     // canonical entry payload (nil = no entry here); never edited
	children []*idxNode // sorted by (name, value)
	subtree  int        // serialized size of this node's subtree in bytes
	entries  int        // payloads in this node's subtree
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

// appendPathKey appends the map key for an identifier: its general→specific
// path with NUL separators (names and values cannot contain NUL — they come
// from parsed XML attributes or branch.Parse). Built into a caller's stack
// buffer, a key costs an allocation only when a new entry stores it.
func appendPathKey(dst []byte, id branch.ID) []byte {
	for i := len(id.Pairs) - 1; i >= 0; i-- {
		p := id.Pairs[i]
		dst = append(dst, p.Name...)
		dst = append(dst, 0)
		dst = append(dst, p.Value...)
		dst = append(dst, 0)
	}
	return dst
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
	id := n.id.Child(p.Name, p.Value)
	c := &idxNode{pair: p, id: id, attr: escapeID(id), open: open, subtree: len(open) + branchCloseLen}
	n.children = append(n.children, nil)
	copy(n.children[lo+1:], n.children[lo:])
	n.children[lo] = c
	return c, true, nil
}

// Update implements Cache: O(report) — no document splice. The canonical
// payload is settled up front so a malformed report never mutates the
// index; for a report already canonical that is one scan, and the copy
// onto the trie in insert is the only other time its bytes are touched.
func (c *IndexedCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	payload, err := EntryPayload(reportXML, nil)
	if err != nil {
		return false, err
	}
	return c.insert(id, payload)
}

// insert hangs an admitted payload — what EntryPayload returns for the
// report — at id. The depot's store path admits reports itself, in the
// same scan as its archive extraction, and counts what it writes out.
func (c *IndexedCache) insert(id branch.ID, payload []byte) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The nodes from the root down to the entry, and which of them this
	// update created: identifiers are a few components deep, so both stay
	// on the stack.
	var touchedBuf [16]*idxNode
	var createdBuf [16]bool
	n := c.root
	touched := append(touchedBuf[:0], n)
	created := append(createdBuf[:0], false)
	for i := len(id.Pairs) - 1; i >= 0; i-- {
		ch, fresh, err := n.child(id.Pairs[i], true)
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
		// Only Update gives a node its entry, so a replaced entry's key is
		// in the map already.
		var key [128]byte
		c.byKey[string(appendPathKey(key[:0], id))] = n
	}
	// A new slice, never an edit of the old one: readers may hold it.
	n.payload = append([]byte(nil), payload...)
	// Propagate size growth leaf→root: each node's subtree grows by the
	// entry delta plus the shells of nodes created strictly below it (a
	// created node's own shell was counted at creation and belongs to its
	// parent's increment).
	for i := len(touched) - 1; i >= 0; i-- {
		touched[i].subtree += inc
		if added {
			touched[i].entries++
		}
		if created[i] {
			inc += len(touched[i].open) + branchCloseLen
		}
	}
	c.size += inc
	c.gen++
	return added, nil
}

// writeTo appends the canonical serialization of n's subtree. When ends
// is not nil it also records, in (*ends)[depth], the offset in buf just
// past the </branch> of every element it writes, by the element's depth
// below the document's root element; n sits at depth.
func (n *idxNode) writeTo(buf *bytes.Buffer, depth int, ends *[][]int) {
	buf.Write(n.open)
	if n.payload != nil {
		buf.WriteString("<entry>")
		buf.Write(n.payload)
		buf.WriteString("</entry>")
	}
	for _, ch := range n.children {
		ch.writeTo(buf, depth+1, ends)
	}
	buf.WriteString("</branch>")
	if ends != nil {
		for len(*ends) <= depth {
			*ends = append(*ends, nil)
		}
		(*ends)[depth] = append((*ends)[depth], buf.Len())
	}
}

// materializeLocked rebuilds the canonical document, and its branch ends,
// in new buffers (a reader may hold the old ones); callers hold c.mu for
// writing. Each depth's ends start at the size the last render needed.
func (c *IndexedCache) materializeLocked() {
	var buf bytes.Buffer
	buf.Grow(c.size)
	ends := make([][]int, len(c.ends))
	for d := range ends {
		ends[d] = make([]int, 0, len(c.ends[d]))
	}
	buf.WriteString("<cache>")
	if c.root.payload != nil {
		buf.WriteString("<entry>")
		buf.Write(c.root.payload)
		buf.WriteString("</entry>")
	}
	for _, ch := range c.root.children {
		ch.writeTo(&buf, 1, &ends)
	}
	buf.WriteString("</cache>")
	c.doc, c.ends = buf.Bytes(), ends
	c.docGen = c.gen
}

// Dump implements Cache: the lazily materialized canonical document
// itself. While the cache is unchanged, repeat dumps cost nothing.
func (c *IndexedCache) Dump() []byte {
	doc, _ := c.dump()
	return doc
}

// dump is the materialized document and its branch ends.
func (c *IndexedCache) dump() ([]byte, [][]int) {
	c.mu.RLock()
	doc, ends, fresh := c.doc, c.ends, c.docGen == c.gen
	c.mu.RUnlock()
	if fresh {
		return doc, ends
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.docGen != c.gen {
		c.materializeLocked()
	}
	return c.doc, c.ends
}

// Query implements Cache. Exact and prefix identifiers serialize only the
// named subtree — O(report) for a leaf; the root identifier returns the
// materialized document.
func (c *IndexedCache) Query(id branch.ID) ([]byte, bool, error) {
	body, _, ok, err := c.query(id, false)
	return body, ok, err
}

// QueryIndex is Query with the child index a router merges by (DESIGN.md
// §5h): the offset just past the </branch> of every element depth levels
// below the answer's root element, in document order, taken from the
// render that produced the body.
func (c *IndexedCache) QueryIndex(id branch.ID, depth int) (body []byte, ends []int, ok bool, err error) {
	body, all, ok, err := c.query(id, true)
	if depth >= 0 && depth < len(all) {
		ends = all[depth]
	}
	return body, ends, ok, err
}

// query is Query, and with ends the body's branch ends by depth.
func (c *IndexedCache) query(id branch.ID, ends bool) ([]byte, [][]int, bool, error) {
	if id.IsRoot() {
		doc, all := c.dump()
		return doc, all, true, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.lookupLocked(id)
	if !ok {
		return nil, nil, false, nil
	}
	var buf bytes.Buffer
	buf.Grow(n.subtree)
	var all [][]int
	if ends {
		n.writeTo(&buf, 0, &all)
	} else {
		n.writeTo(&buf, 0, nil)
	}
	return buf.Bytes(), all, true, nil
}

// lookupLocked resolves an identifier; callers hold c.mu.
func (c *IndexedCache) lookupLocked(id branch.ID) (*idxNode, bool) {
	var key [128]byte
	if n, ok := c.byKey[string(appendPathKey(key[:0], id))]; ok {
		return n, true
	}
	// Interior nodes created as ancestors of stored identifiers are
	// queryable too but have no byKey entry; walk the trie.
	n := c.root
	for i := len(id.Pairs) - 1; i >= 0; i-- {
		ch, _, _ := n.child(id.Pairs[i], false)
		if ch == nil {
			return nil, false
		}
		n = ch
	}
	return n, true
}

// Reports implements Cache: O(results) — only the prefix subtree is
// walked, in canonical document order (node entry before children), and
// each report is handed out as the node holds it: its payload, identifier
// and rendered attribute, no copy and no escaping. The read lock covers
// the walk alone.
func (c *IndexedCache) Reports(prefix branch.ID) ([]Stored, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	start := c.root
	if !prefix.IsRoot() {
		n, ok := c.lookupLocked(prefix)
		if !ok {
			return nil, nil
		}
		start = n
	}
	if start.entries == 0 {
		return nil, nil
	}
	return start.appendStored(make([]Stored, 0, start.entries)), nil
}

// appendStored appends the reports of n's subtree in document order.
func (n *idxNode) appendStored(out []Stored) []Stored {
	if n.payload != nil {
		out = append(out, Stored{ID: n.id, XML: n.payload, Attr: n.attr})
	}
	for _, ch := range n.children {
		out = ch.appendStored(out)
	}
	return out
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
