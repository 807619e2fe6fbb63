package federation

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"inca/internal/branch"
	"inca/internal/xmlscan"
)

// The scatter-gather merge: each shard answers a /cache or /reports query
// with a canonical document over its slice of the branch space, and these
// functions stitch the slices back into the byte-identical answer a
// single depot holding every report would give. That identity is what
// lets the query tier compose per-shard ETags into one validator — equal
// per-shard generations imply equal merged bytes.
//
// Two structural facts make a byte-exact merge possible. First, every
// cache document is canonical: no inter-element whitespace, children in
// (name, value) order, a node's entry before its branch children — so
// order is a function of content, not arrival. Second, the ring routes
// whole prefix subtrees: two shards can both hold a node only above the
// affinity depth (e.g. both have a vo=tg child when sites hash apart),
// and such shared interior nodes merge recursively; at or below the
// affinity depth a subtree has exactly one owner, and any duplicate left
// behind by a rebalance is resolved in the owner's favor.
//
// The same canonical form is why the merge never parses: the shard
// documents are split with the byte-level scanner (internal/xmlscan) in
// one pass each, and the answer is a Plan — an ordered list of sub-slices
// of the shard bodies — not a new buffer. The split still refuses what
// the encoding/xml implementation it replaced refused (merge_test.go
// keeps that implementation as the oracle): a document that does not
// start with an element, a child that is not <entry> or <branch>
// (<stored> under <reports>), a second <entry>, text between children,
// and anything unterminated or closed by the wrong tag.

// ShardDoc is one shard's response body, tagged with the ring member that
// produced it.
type ShardDoc struct {
	Shard string
	Body  []byte
}

// Plan is a merged document as the ordered sub-slices of the shard bodies
// that make it up, adjacent slices coalesced. Parts alias the ShardDoc
// bodies the plan was built from: they are valid only as long as those
// are, so a caller recycling bodies does so after the last part is
// written.
type Plan struct {
	Parts [][]byte
	Len   int // total length of Parts
}

// whole is the plan that passes one body through untouched.
func whole(body []byte) Plan { return Plan{Parts: [][]byte{body}, Len: len(body)} }

// Bytes concatenates the plan. A one-part plan returns the part itself.
func (p Plan) Bytes() []byte {
	if len(p.Parts) == 1 {
		return p.Parts[0]
	}
	out := make([]byte, 0, p.Len)
	for _, part := range p.Parts {
		out = append(out, part...)
	}
	return out
}

// WriteTo writes the parts to w in order.
func (p Plan) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, part := range p.Parts {
		k, err := w.Write(part)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// span is a byte range of one shard body.
type span struct{ start, end int }

// planner accumulates a Plan over docs.
type planner struct {
	docs []ShardDoc
	plan Plan
	// The last part is docs[doc].Body[start:end]; a span that starts at
	// end in the same document extends it instead of adding a part.
	doc, start, end int
}

func (b *planner) add(doc int, s span) {
	if s.start == s.end {
		return
	}
	b.plan.Len += s.end - s.start
	if k := len(b.plan.Parts) - 1; k >= 0 && doc == b.doc && s.start == b.end {
		b.end = s.end
		b.plan.Parts[k] = b.docs[doc].Body[b.start:b.end]
		return
	}
	b.doc, b.start, b.end = doc, s.start, s.end
	b.plan.Parts = append(b.plan.Parts, b.docs[doc].Body[s.start:s.end])
}

// literal adds bytes that belong to no shard body.
func (b *planner) literal(p []byte) {
	b.plan.Len += len(p)
	b.plan.Parts = append(b.plan.Parts, p)
	b.doc = -1
}

// node is one container element — a document's root, or a branch above
// the affinity depth — split into its verbatim pieces.
type node struct {
	doc         int  // index of the shard document it was cut from
	open, close span // container tags
	entry       span // <entry>…</entry>, empty if the node holds no report
	kids        []kid
}

// kid is one <branch> child of a node.
type kid struct {
	name, value string
	doc         int
	raw         span
	// sub is the child split in turn, when it sits above the affinity
	// depth and so may be shared with another shard; err is why it could
	// not be, which matters only if the merge has to open the child.
	sub *node
	err error
}

var errCharData = errors.New("federation: unexpected character data in cache document")

// blank reports whether character data between children is only
// whitespace once its references are resolved (none occur in canonical
// documents, where len(text) is 0).
func blank(text []byte) bool {
	return len(text) == 0 || strings.TrimSpace(xmlscan.Unescape(text)) == ""
}

// cdataText is the character data inside a CDATA tag.
func cdataText(body []byte, t xmlscan.Tag) []byte {
	return body[t.Start+len("<![CDATA[") : t.End-len("]]>")]
}

// splitNode splits the container element opened by root into its tags,
// its entry and its branch children, in one pass over body; it returns
// the offset just past the element. Children are cut out verbatim, so
// reassembly preserves the shard's exact rendering. levels is how many
// generations of branch children sit above the affinity depth: those are
// split in turn during the same pass instead of being skipped over.
func splitNode(body []byte, doc int, root xmlscan.Tag, levels int) (*node, int, error) {
	n := &node{doc: doc, open: span{root.Start, root.End}, close: span{root.End, root.End}}
	if root.Kind == xmlscan.Empty {
		return n, root.End, nil
	}
	pos := root.End
	for {
		t, ok, err := xmlscan.Next(body, pos)
		if err != nil {
			return nil, 0, fmt.Errorf("federation: bad shard document: %w", err)
		}
		if !ok {
			return nil, 0, fmt.Errorf("federation: shard document not closed")
		}
		if !blank(body[pos:t.Start]) {
			return nil, 0, errCharData
		}
		pos = t.End
		switch t.Kind {
		case xmlscan.Close:
			if !bytes.Equal(t.Name, root.Name) {
				return nil, 0, fmt.Errorf("federation: bad shard document: <%s> closed by </%s>", root.Name, t.Name)
			}
			n.close = span{t.Start, t.End}
			return n, t.End, nil
		case xmlscan.CDATA:
			if strings.TrimSpace(string(cdataText(body, t))) != "" {
				return nil, 0, errCharData
			}
		case xmlscan.Open, xmlscan.Empty:
			switch string(xmlscan.LocalName(t.Name)) {
			case "entry":
				if pos, err = xmlscan.SkipSubtree(body, t); err != nil {
					return nil, 0, fmt.Errorf("federation: bad shard document: %w", err)
				}
				if n.entry.end > 0 {
					return nil, 0, fmt.Errorf("federation: node with two entries")
				}
				n.entry = span{t.Start, pos}
			case "branch":
				k := kid{doc: doc}
				k.name, _ = xmlscan.AttrValue(t.Attrs, "name")
				k.value, _ = xmlscan.AttrValue(t.Attrs, "value")
				if levels > 0 {
					k.sub, pos, k.err = splitNode(body, doc, t, levels-1)
				}
				if k.sub == nil {
					if pos, err = xmlscan.SkipSubtree(body, t); err != nil {
						return nil, 0, fmt.Errorf("federation: bad shard document: %w", err)
					}
				}
				k.raw = span{t.Start, pos}
				n.kids = append(n.kids, k)
			default:
				return nil, 0, fmt.Errorf("federation: unexpected element <%s> in cache document", t.Name)
			}
		}
	}
}

// splitDoc splits a whole shard document: its root must be the first
// byte, and whatever follows the root's close tag stays attached to it.
func splitDoc(docs []ShardDoc, doc, levels int) (*node, error) {
	body := docs[doc].Body
	root, ok, err := xmlscan.Next(body, 0)
	if err != nil {
		return nil, fmt.Errorf("federation: bad shard document: %w", err)
	}
	if !ok || root.Start != 0 || (root.Kind != xmlscan.Open && root.Kind != xmlscan.Empty) {
		return nil, fmt.Errorf("federation: shard document does not start with an element")
	}
	n, _, err := splitNode(body, doc, root, levels)
	if err != nil {
		return nil, err
	}
	n.close.end = len(body)
	return n, nil
}

// preferOwner picks, among candidate documents (indexes into docs), the
// one from the shard the ring says owns path, falling back to the first;
// it returns the pick's position in candidates. Duplicates of an owned
// subtree only exist transiently after a rebalance copied it to its new
// owner; the owner's copy is the one ingest has been updating since.
func preferOwner(docs []ShardDoc, candidates []int, path []branch.Pair, r *Ring) int {
	owner := r.pathOwner(path)
	for i, c := range candidates {
		if docs[c].Shard == owner {
			return i
		}
	}
	return 0
}

// PlanCache merges per-shard /cache responses for the branch id into the
// single-depot answer. docs carries only the shards that had data (404s
// are simply absent); id is the queried branch, whose path seeds the
// ownership decisions for duplicate subtrees.
func PlanCache(docs []ShardDoc, id branch.ID, r *Ring) (Plan, error) {
	if len(docs) == 0 {
		return Plan{}, fmt.Errorf("federation: nothing to merge")
	}
	if len(docs) == 1 {
		return whole(docs[0].Body), nil
	}
	path := id.Path()
	nodes := make([]*node, len(docs))
	for i := range docs {
		n, err := splitDoc(docs, i, r.depth-1-len(path))
		if err != nil {
			return Plan{}, err
		}
		nodes[i] = n
	}
	b := planner{docs: docs}
	if err := b.mergeNode(nodes, path, r); err != nil {
		return Plan{}, err
	}
	return b.plan, nil
}

// MergeCache is PlanCache concatenated into one buffer.
func MergeCache(docs []ShardDoc, id branch.ID, r *Ring) ([]byte, error) {
	p, err := PlanCache(docs, id, r)
	if err != nil {
		return nil, err
	}
	return p.Bytes(), nil
}

// mergeNode plans the canonical merge of one shared node. path is the
// node's general→specific location from the cache root.
func (b *planner) mergeNode(nodes []*node, path []branch.Pair, r *Ring) error {
	b.add(nodes[0].doc, nodes[0].open)

	// The node's entry: one shard owns the exact branch, so at most one
	// entry exists in steady state; duplicates resolve to the owner's.
	var holders []int // documents with an entry here, and the entries
	var entries []span
	for _, n := range nodes {
		if n.entry.end > 0 {
			holders = append(holders, n.doc)
			entries = append(entries, n.entry)
		}
	}
	if len(holders) > 0 {
		k := preferOwner(b.docs, holders, path, r)
		b.add(holders[k], entries[k])
	}

	// Branch children in canonical (name, value) order. Each shard's kids
	// arrive sorted already; a global stable sort groups equal keys across
	// shards without disturbing per-shard order.
	var kids []kid
	for _, n := range nodes {
		kids = append(kids, n.kids...)
	}
	sort.SliceStable(kids, func(i, j int) bool {
		if kids[i].name != kids[j].name {
			return kids[i].name < kids[j].name
		}
		return kids[i].value < kids[j].value
	})
	for i := 0; i < len(kids); {
		j := i + 1
		for j < len(kids) && kids[j].name == kids[i].name && kids[j].value == kids[i].value {
			j++
		}
		group := kids[i:j]
		i = j
		if len(group) == 1 {
			b.add(group[0].doc, group[0].raw)
			continue
		}
		childPath := append(append([]branch.Pair(nil), path...), branch.Pair{Name: group[0].name, Value: group[0].value})
		if len(childPath) >= r.depth {
			// A routed subtree has one owner; several copies mean a
			// rebalance left a stale one behind. Keep the owner's.
			holders := make([]int, len(group))
			for k, g := range group {
				holders[k] = g.doc
			}
			g := group[preferOwner(b.docs, holders, childPath, r)]
			b.add(g.doc, g.raw)
			continue
		}
		// Shared interior node (above the affinity depth): recurse into
		// the splits the first pass already made.
		sub := make([]*node, len(group))
		for k, g := range group {
			if g.err != nil {
				return g.err
			}
			sub[k] = g.sub
		}
		if err := b.mergeNode(sub, childPath, r); err != nil {
			return err
		}
	}
	b.add(nodes[0].doc, nodes[0].close)
	return nil
}

// storedChunk is one <stored> element from a shard's /reports response.
type storedChunk struct {
	path  []branch.Pair
	doc   int
	raw   span
	inner int // offset just past the open tag
}

var (
	reportsOpen  = []byte("<reports>")
	reportsClose = []byte("</reports>")
)

// PlanReports merges per-shard /reports responses into the single-depot
// report list: <stored> elements in canonical branch order (the order a
// single depot's document walk yields), duplicates from a rebalance
// resolved in the ring owner's favor.
func PlanReports(docs []ShardDoc, r *Ring) (Plan, error) {
	if len(docs) == 1 {
		return whole(docs[0].Body), nil
	}
	var chunks []storedChunk
	for i, d := range docs {
		part, err := splitReports(d.Body, i)
		if err != nil {
			return Plan{}, err
		}
		chunks = append(chunks, part...)
	}
	sort.SliceStable(chunks, func(i, j int) bool {
		return comparePaths(chunks[i].path, chunks[j].path) < 0
	})
	b := planner{docs: docs}
	b.literal(reportsOpen)
	for i := 0; i < len(chunks); {
		j := i + 1
		for j < len(chunks) && comparePaths(chunks[j].path, chunks[i].path) == 0 {
			j++
		}
		group := chunks[i:j]
		i = j
		pick := group[0]
		if len(group) > 1 {
			holders := make([]int, len(group))
			for k, g := range group {
				holders[k] = g.doc
			}
			pick = group[preferOwner(docs, holders, pick.path, r)]
		}
		b.add(pick.doc, pick.raw)
	}
	b.literal(reportsClose)
	return b.plan, nil
}

// MergeReports is PlanReports concatenated into one buffer.
func MergeReports(docs []ShardDoc, r *Ring) ([]byte, error) {
	p, err := PlanReports(docs, r)
	if err != nil {
		return nil, err
	}
	return p.Bytes(), nil
}

// splitReports cuts a /reports document into its <stored> elements.
// Character data between them is ignored, as it always was.
func splitReports(body []byte, doc int) ([]storedChunk, error) {
	root, ok, err := xmlscan.Next(body, 0)
	if err != nil {
		return nil, fmt.Errorf("federation: bad reports document: %w", err)
	}
	if !ok || root.Start != 0 || (root.Kind != xmlscan.Open && root.Kind != xmlscan.Empty) ||
		string(xmlscan.LocalName(root.Name)) != "reports" {
		return nil, fmt.Errorf("federation: not a reports document")
	}
	if root.Kind == xmlscan.Empty {
		return nil, nil
	}
	var out []storedChunk
	pos := root.End
	for {
		t, ok, err := xmlscan.ScanTag(body, pos)
		if err != nil {
			return nil, fmt.Errorf("federation: bad reports document: %w", err)
		}
		if !ok {
			return nil, fmt.Errorf("federation: bad reports document: not closed")
		}
		if t.Kind == xmlscan.Close {
			if !bytes.Equal(t.Name, root.Name) {
				return nil, fmt.Errorf("federation: bad reports document: <%s> closed by </%s>", root.Name, t.Name)
			}
			return out, nil
		}
		if string(xmlscan.LocalName(t.Name)) != "stored" {
			return nil, fmt.Errorf("federation: unexpected element <%s> in reports document", t.Name)
		}
		idAttr, _ := xmlscan.AttrValue(t.Attrs, "branch")
		id, err := branch.Parse(idAttr)
		if err != nil {
			return nil, fmt.Errorf("federation: bad stored branch: %w", err)
		}
		if pos, err = xmlscan.SkipSubtree(body, t); err != nil {
			return nil, fmt.Errorf("federation: bad reports document: %w", err)
		}
		// Parse's pairs are fresh and lead with the most specific: reversed
		// in place they are the general→specific path.
		path := id.Pairs
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		out = append(out, storedChunk{path: path, doc: doc, raw: span{t.Start, pos}, inner: t.End})
	}
}

// comparePaths orders general→specific paths the way branch.Sort does:
// component-wise by (name, value), shorter prefix first.
func comparePaths(a, b []branch.Pair) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k].Name != b[k].Name {
			if a[k].Name < b[k].Name {
				return -1
			}
			return 1
		}
		if a[k].Value != b[k].Value {
			if a[k].Value < b[k].Value {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
