package federation

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
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
//
// Most of a whole-cache document lies in the subtrees at the affinity
// depth, which the split steps over whole. A shard that sends its child
// index with the document (IndexHeader) saves the router that scan: the
// split takes each such subtree's end from the index instead. The index
// is checked as it is read, and a document whose index is missing or
// fails a check is split again by scan, so an index can make a merge
// cheaper but never make it differ from the scan's.

// ShardDoc is one shard's response body, tagged with the ring member that
// produced it.
type ShardDoc struct {
	Shard string
	Body  []byte
	// Index is the IndexHeader value the shard sent with a /cache body; ""
	// when it sent none, and the body is split by scan.
	Index string
}

// The child index. A shard renders a /cache document in one pass, so it
// knows where every <branch> element ends without reading the body again.
// A request carrying DepthHeader asks for the end offsets of the <branch>
// elements that many levels below the document's root; the answer carries
// them, in document order, as IndexHeader: "depth:end1,end2,...". A shard
// with more than MaxIndexEntries of them sends none.
const (
	DepthHeader     = "X-Inca-Index-Depth"
	IndexHeader     = "X-Inca-Child-Index"
	MaxIndexEntries = 1 << 14
)

// IndexDepth is the depth below the root of id's document whose <branch>
// elements PlanCache steps over whole: the ring's affinity depth, or the
// root's children for a subtree at or below it.
func IndexDepth(id branch.ID, r *Ring) int {
	return max(r.depth-id.Depth(), 1)
}

// AppendIndex appends the IndexHeader value of ends, the end offsets of
// the <branch> elements at depth.
func AppendIndex(dst []byte, depth int, ends []int) []byte {
	dst = strconv.AppendInt(dst, int64(depth), 10)
	dst = append(dst, ':')
	for i, e := range ends {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(e), 10)
	}
	return dst
}

// childIndex reads an IndexHeader value as the split consumes it.
type childIndex struct {
	rest string // the entries not taken yet
	last int    // the entry taken last
}

var (
	errIndex    = errors.New("federation: child index does not match the document")
	branchClose = []byte("</branch>")
)

// openIndex starts reading value, which must be an index for depth.
func openIndex(value string, depth int) (*childIndex, bool) {
	d, rest, ok := strings.Cut(value, ":")
	if !ok || d != strconv.Itoa(depth) {
		return nil, false
	}
	return &childIndex{rest: rest}, true
}

// skip is SkipSubtree for the <branch> element t opens, answered by the
// next entry: the offset just past the element's close tag. An entry that
// is missing or malformed, out of the body, not past the entry before it
// and t's open tag, or not the end of a </branch> is errIndex.
func (x *childIndex) skip(body []byte, t xmlscan.Tag) (int, error) {
	end, i := 0, 0
	for ; i < len(x.rest) && x.rest[i] != ','; i++ {
		c := x.rest[i]
		if c < '0' || c > '9' || end > len(body) {
			return 0, errIndex
		}
		end = end*10 + int(c-'0')
	}
	if i == 0 || i+1 == len(x.rest) { // no digits, or a trailing comma
		return 0, errIndex
	}
	x.rest = x.rest[min(i+1, len(x.rest)):]
	if t.Kind != xmlscan.Open || end <= x.last || end > len(body) || end-len(branchClose) < t.End ||
		!bytes.Equal(body[end-len(branchClose):end], branchClose) {
		return 0, errIndex
	}
	x.last = end
	return end, nil
}

// Plan is a merged document as the ordered sub-slices of the shard bodies
// that make it up, adjacent slices coalesced. Parts alias the ShardDoc
// bodies the plan was built from: they are valid only as long as those
// are, so a caller recycling bodies does so after the last part is
// written.
type Plan struct {
	Parts [][]byte
	Len   int // total length of Parts
	// Scans is how many shard documents were split without a usable child
	// index.
	Scans int
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
// split in turn during the same pass instead of being skipped over. The
// branch children it does skip are skipped by idx when there is one, and
// then any error, a child's included, is the caller's cue to split again
// by scan.
func splitNode(body []byte, doc int, root xmlscan.Tag, levels int, idx *childIndex) (*node, int, error) {
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
				switch {
				case levels > 0:
					if k.sub, pos, k.err = splitNode(body, doc, t, levels-1, idx); k.err != nil && idx != nil {
						return nil, 0, k.err
					}
				case idx != nil:
					if pos, err = idx.skip(body, t); err != nil {
						return nil, 0, err
					}
				}
				if k.sub == nil && idx == nil {
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
// The split reads the document's child index for the depth below levels;
// indexed is false when it had none, or the index failed a check or was
// not used up, and the document was split by scan.
func splitDoc(docs []ShardDoc, doc, levels int) (n *node, indexed bool, err error) {
	body := docs[doc].Body
	root, ok, err := xmlscan.Next(body, 0)
	if err != nil {
		return nil, false, fmt.Errorf("federation: bad shard document: %w", err)
	}
	if !ok || root.Start != 0 || (root.Kind != xmlscan.Open && root.Kind != xmlscan.Empty) {
		return nil, false, fmt.Errorf("federation: shard document does not start with an element")
	}
	if idx, ok := openIndex(docs[doc].Index, max(levels, 0)+1); ok {
		if n, _, err := splitNode(body, doc, root, levels, idx); err == nil && idx.rest == "" {
			n.close.end = len(body)
			return n, true, nil
		}
	}
	if n, _, err = splitNode(body, doc, root, levels, nil); err != nil {
		return nil, false, err
	}
	n.close.end = len(body)
	return n, false, nil
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
// ownership decisions for duplicate subtrees. A document's child index for
// IndexDepth(id, r) spares the scan of the subtrees at that depth; Scans
// counts the documents split without one.
func PlanCache(docs []ShardDoc, id branch.ID, r *Ring) (Plan, error) {
	if len(docs) == 0 {
		return Plan{}, fmt.Errorf("federation: nothing to merge")
	}
	if len(docs) == 1 {
		return whole(docs[0].Body), nil
	}
	path := id.Path()
	nodes := make([]*node, len(docs))
	scans := 0
	for i := range docs {
		n, indexed, err := splitDoc(docs, i, r.depth-1-len(path))
		if err != nil {
			return Plan{}, err
		}
		if !indexed {
			scans++
		}
		nodes[i] = n
	}
	b := planner{docs: docs}
	if err := b.mergeNode(nodes, path, r); err != nil {
		return Plan{}, err
	}
	b.plan.Scans = scans
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
