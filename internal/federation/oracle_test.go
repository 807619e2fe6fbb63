package federation

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"

	"inca/internal/branch"
)

// The differential oracle: the encoding/xml tokenising merge that
// merge.go replaced, kept verbatim (names prefixed) so the byte-level
// implementation is always compared against the parser it must agree
// with. One deliberate difference: oracleChunk records where the decoder
// says the <stored> open tag ends, where the old ParseReports looked for
// the first '>' — wrong for a '>' inside a quoted attribute value, which
// canonical documents never contain.

// oracleParts is one container element split into its verbatim pieces.
type oracleParts struct {
	shard string
	open  []byte // "<cache>" or "<branch name=... value=...>"
	close []byte // matching end tag
	entry []byte // raw <entry>…</entry>, nil if the node holds no report
	kids  []oracleChild
}

// oracleChild is one depth-1 <branch> child, sliced verbatim from the
// source document.
type oracleChild struct {
	name, value string
	raw         []byte
	shard       string
}

// oracleSplitDoc splits a canonical subtree document into container tags, the
// node's entry, and its branch children. Child bytes are sliced from the
// input verbatim, so reassembly preserves the shard's exact rendering.
func oracleSplitDoc(body []byte, shard string) (oracleParts, error) {
	p := oracleParts{shard: shard}
	dec := xml.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return p, fmt.Errorf("federation: bad shard document: %w", err)
	}
	if _, ok := tok.(xml.StartElement); !ok {
		return p, fmt.Errorf("federation: shard document does not start with an element")
	}
	p.open = body[:dec.InputOffset()]
	for {
		pos := dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			return p, fmt.Errorf("federation: shard document not closed")
		}
		if err != nil {
			return p, fmt.Errorf("federation: bad shard document: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := dec.Skip(); err != nil {
				return p, fmt.Errorf("federation: bad shard document: %w", err)
			}
			raw := body[pos:dec.InputOffset()]
			switch t.Name.Local {
			case "entry":
				if p.entry != nil {
					return p, fmt.Errorf("federation: node with two entries")
				}
				p.entry = raw
			case "branch":
				var name, value string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "name":
						name = a.Value
					case "value":
						value = a.Value
					}
				}
				p.kids = append(p.kids, oracleChild{name: name, value: value, raw: raw, shard: shard})
			default:
				return p, fmt.Errorf("federation: unexpected element <%s> in cache document", t.Name.Local)
			}
		case xml.EndElement:
			p.close = body[pos:]
			return p, nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return p, fmt.Errorf("federation: unexpected character data in cache document")
			}
		}
	}
}

// oraclePreferOwner picks the candidate shard the ring says owns path,
// falling back to the first candidate. Duplicates of an owned subtree
// only exist transiently after a rebalance copied it to its new owner;
// the owner's copy is the one ingest has been updating since.
func oraclePreferOwner(candidates []string, path []branch.Pair, r *Ring) string {
	owner := r.pathOwner(path)
	for _, c := range candidates {
		if c == owner {
			return c
		}
	}
	return candidates[0]
}

// oracleMergeCache merges per-shard /cache responses for the branch id into the
// single-depot answer. docs carries only the shards that had data (404s
// are simply absent); id is the queried branch, whose path seeds the
// ownership decisions for duplicate subtrees.
func oracleMergeCache(docs []ShardDoc, id branch.ID, r *Ring) ([]byte, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("federation: nothing to merge")
	}
	if len(docs) == 1 {
		return docs[0].Body, nil
	}
	parts := make([]oracleParts, 0, len(docs))
	for _, d := range docs {
		p, err := oracleSplitDoc(d.Body, d.Shard)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	var buf bytes.Buffer
	n := 0
	for _, d := range docs {
		n += len(d.Body)
	}
	buf.Grow(n)
	if err := oracleMergeNode(&buf, parts, id.Path(), r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracleMergeNode writes the canonical merge of one shared node. path is the
// node's general→specific location from the cache root.
func oracleMergeNode(buf *bytes.Buffer, parts []oracleParts, path []branch.Pair, r *Ring) error {
	buf.Write(parts[0].open)

	// The node's entry: one shard owns the exact branch, so at most one
	// entry exists in steady state; duplicates resolve to the owner's.
	var entryShards []string
	var entries map[string][]byte
	for _, p := range parts {
		if p.entry != nil {
			if entries == nil {
				entries = make(map[string][]byte, 2)
			}
			entryShards = append(entryShards, p.shard)
			entries[p.shard] = p.entry
		}
	}
	if len(entryShards) > 0 {
		buf.Write(entries[oraclePreferOwner(entryShards, path, r)])
	}

	// Branch children in canonical (name, value) order. Each shard's kids
	// arrive sorted already; a global stable sort groups equal keys across
	// shards without disturbing per-shard order.
	var kids []oracleChild
	for _, p := range parts {
		kids = append(kids, p.kids...)
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
		childPath := append(append([]branch.Pair(nil), path...), branch.Pair{Name: group[0].name, Value: group[0].value})
		switch {
		case len(group) == 1:
			buf.Write(group[0].raw)
		case len(childPath) >= r.depth:
			// A routed subtree has one owner; several copies mean a
			// rebalance left a stale one behind. Keep the owner's.
			shards := make([]string, len(group))
			for k, g := range group {
				shards[k] = g.shard
			}
			owner := oraclePreferOwner(shards, childPath, r)
			for _, g := range group {
				if g.shard == owner {
					buf.Write(g.raw)
					break
				}
			}
		default:
			// Shared interior node (above the affinity depth): recurse.
			sub := make([]oracleParts, 0, len(group))
			for _, g := range group {
				p, err := oracleSplitDoc(g.raw, g.shard)
				if err != nil {
					return err
				}
				sub = append(sub, p)
			}
			if err := oracleMergeNode(buf, sub, childPath, r); err != nil {
				return err
			}
		}
		i = j
	}
	buf.Write(parts[0].close)
	return nil
}

// oracleChunk is one <stored> element from a shard's /reports response.
type oracleChunk struct {
	path  []branch.Pair
	raw   []byte
	inner int // offset in raw just past the open tag
	shard string
}

// oracleMergeReports merges per-shard /reports responses into the single-depot
// report list: <stored> elements in canonical branch order (the order a
// single depot's document walk yields), duplicates from a rebalance
// resolved in the ring owner's favor.
func oracleMergeReports(docs []ShardDoc, r *Ring) ([]byte, error) {
	if len(docs) == 1 {
		return docs[0].Body, nil
	}
	var chunks []oracleChunk
	for _, d := range docs {
		part, err := oracleSplitReports(d.Body, d.Shard)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, part...)
	}
	sort.SliceStable(chunks, func(i, j int) bool {
		return comparePaths(chunks[i].path, chunks[j].path) < 0
	})
	var buf bytes.Buffer
	buf.WriteString("<reports>")
	for i := 0; i < len(chunks); {
		j := i + 1
		for j < len(chunks) && comparePaths(chunks[j].path, chunks[i].path) == 0 {
			j++
		}
		group := chunks[i:j]
		if len(group) == 1 {
			buf.Write(group[0].raw)
		} else {
			shards := make([]string, len(group))
			for k, g := range group {
				shards[k] = g.shard
			}
			owner := oraclePreferOwner(shards, group[0].path, r)
			for _, g := range group {
				if g.shard == owner {
					buf.Write(g.raw)
					break
				}
			}
		}
		i = j
	}
	buf.WriteString("</reports>")
	return buf.Bytes(), nil
}

func oracleSplitReports(body []byte, shard string) ([]oracleChunk, error) {
	dec := xml.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("federation: bad reports document: %w", err)
	}
	if start, ok := tok.(xml.StartElement); !ok || start.Name.Local != "reports" {
		return nil, fmt.Errorf("federation: not a reports document")
	}
	var out []oracleChunk
	for {
		pos := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("federation: bad reports document: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "stored" {
				return nil, fmt.Errorf("federation: unexpected element <%s> in reports document", t.Name.Local)
			}
			var idAttr string
			for _, a := range t.Attr {
				if a.Name.Local == "branch" {
					idAttr = a.Value
				}
			}
			id, err := branch.Parse(idAttr)
			if err != nil {
				return nil, fmt.Errorf("federation: bad stored branch: %w", err)
			}
			inner := dec.InputOffset() - pos
			if err := dec.Skip(); err != nil {
				return nil, fmt.Errorf("federation: bad reports document: %w", err)
			}
			out = append(out, oracleChunk{path: id.Path(), raw: body[pos:dec.InputOffset()], inner: int(inner), shard: shard})
		case xml.EndElement:
			return out, nil
		}
	}
}

// oracleParseReports is the old ParseReports over oracleSplitReports.
func oracleParseReports(body []byte) ([]StoredReport, error) {
	chunks, err := oracleSplitReports(body, "")
	if err != nil {
		return nil, err
	}
	out := make([]StoredReport, 0, len(chunks))
	for _, c := range chunks {
		if !bytes.HasSuffix(c.raw, []byte("</stored>")) || len(c.raw)-len("</stored>") < c.inner {
			return nil, fmt.Errorf("federation: malformed stored element")
		}
		pairs := make([]branch.Pair, len(c.path))
		for i, p := range c.path {
			pairs[len(c.path)-1-i] = p
		}
		out = append(out, StoredReport{ID: branch.New(pairs...), XML: c.raw[c.inner : len(c.raw)-len("</stored>")]})
	}
	return out, nil
}
