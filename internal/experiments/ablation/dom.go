package ablation

import (
	"bytes"
	"encoding/xml"
	"sort"
	"sync"

	"inca/internal/branch"
	"inca/internal/depot"
)

var _ depot.Cache = (*DOMCache)(nil)

// DOMCache keeps the cache as a parsed in-memory tree — the design the
// paper's authors tried first and abandoned because "the memory
// requirements of the DOM parser grew too rapidly with the size of the
// data". Updates are O(depth); Dump serializes on demand. It exists for
// the ablation benchmarks comparing the two designs.
type DOMCache struct {
	mu    sync.RWMutex
	root  *domNode
	count int
	gen   uint64
	bytes int // running estimate of serialized size
}

type domNode struct {
	pair     branch.Pair
	entry    []byte     // the report's payload (depot.EntryPayload)
	children []*domNode // sorted by (name, value)
}

func (n *domNode) child(p branch.Pair, create bool) *domNode {
	i := sort.Search(len(n.children), func(i int) bool {
		c := n.children[i].pair
		if c.Name != p.Name {
			return c.Name >= p.Name
		}
		return c.Value >= p.Value
	})
	if i < len(n.children) && n.children[i].pair == p {
		return n.children[i]
	}
	if !create {
		return nil
	}
	c := &domNode{pair: p}
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	return c
}

// NewDOMCache returns an empty tree cache.
func NewDOMCache() *DOMCache { return &DOMCache{root: &domNode{}} }

// Update implements Cache.
func (c *DOMCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	payload, err := depot.EntryPayload(reportXML, nil)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.root
	for _, p := range id.Path() {
		if n.child(p, false) == nil {
			// New branch element: <branch name=".." value=".."></branch>
			c.bytes += len(p.Name) + len(p.Value) + len(`<branch name="" value=""></branch>`)
		}
		n = n.child(p, true)
	}
	added := n.entry == nil
	if added {
		c.count++
		c.bytes += len("<entry></entry>")
	}
	c.bytes += len(payload) - len(n.entry)
	n.entry = append([]byte(nil), payload...)
	c.gen++
	return added, nil
}

func (c *DOMCache) find(id branch.ID) *domNode {
	n := c.root
	for _, p := range id.Path() {
		n = n.child(p, false)
		if n == nil {
			return nil
		}
	}
	return n
}

// Query implements Cache.
func (c *DOMCache) Query(id branch.ID) ([]byte, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.find(id)
	if n == nil {
		return nil, false, nil
	}
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	var err error
	if n == c.root {
		err = n.encode(enc, &buf, "cache")
	} else {
		err = n.encode(enc, &buf, "branch")
	}
	if err != nil {
		return nil, false, err
	}
	if err := enc.Flush(); err != nil {
		return nil, false, err
	}
	return buf.Bytes(), true, nil
}

// encode writes n's element through enc into buf, where enc writes; its
// entry goes into buf as it stands.
func (n *domNode) encode(enc *xml.Encoder, buf *bytes.Buffer, tag string) error {
	start := xml.StartElement{Name: xml.Name{Local: tag}}
	if tag == "branch" {
		start = branchStart(n.pair)
	}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	if n.entry != nil {
		if err := enc.Flush(); err != nil {
			return err
		}
		buf.WriteString("<entry>")
		buf.Write(n.entry)
		buf.WriteString("</entry>")
	}
	for _, ch := range n.children {
		if err := ch.encode(enc, buf, "branch"); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

// Reports implements Cache.
func (c *DOMCache) Reports(prefix branch.ID) ([]depot.Stored, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []depot.Stored
	var walk func(n *domNode, id branch.ID)
	walk = func(n *domNode, id branch.ID) {
		if n.entry != nil && id.HasSuffix(prefix) {
			out = append(out, depot.NewStored(id, append([]byte(nil), n.entry...)))
		}
		for _, ch := range n.children {
			walk(ch, id.Child(ch.pair.Name, ch.pair.Value))
		}
	}
	walk(c.root, branch.ID{})
	return out, nil
}

// Dump implements Cache.
func (c *DOMCache) Dump() []byte {
	out, _, err := c.Query(branch.ID{})
	if err != nil {
		return nil
	}
	return out
}

// Size implements Cache: an O(1) running estimate of the serialized size
// (entry payloads plus element wrappers; within a few percent of
// len(Dump()) on canonical documents).
func (c *DOMCache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes + len("<cache></cache>")
}

// Count implements Cache.
func (c *DOMCache) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.count
}

// Generation implements Cache.
func (c *DOMCache) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// MemoryFootprint estimates the resident bytes of the tree: the entry
// payloads plus per-node bookkeeping. The ablation bench reports it against
// the StreamCache's flat document size.
func (c *DOMCache) MemoryFootprint() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	var walk func(n *domNode)
	walk = func(n *domNode) {
		const nodeOverhead = 96 // struct, slice headers, interior pointers
		total += nodeOverhead + len(n.entry) + len(n.pair.Name) + len(n.pair.Value)
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(c.root)
	return total
}
