// Package depot implements Inca's data management facility (paper Section
// 3.2.2): a cache holding the most recent report for every branch
// identifier, and an archive of numerical data in round-robin databases
// under uploadable archival policies.
//
// The cache's defining property, taken from the paper, is that "new data
// with unknown schemas can be added to the cache with no configuration":
// the branch identifier alone determines a unique location, and a later
// report for the same identifier replaces the previous one.
//
// Three cache implementations live here, each because production code or
// a test of it needs it:
//
//   - IndexedCache — what a depot runs on unless told otherwise (New,
//     NewWithOptions and OpenDisk build it when given no cache, and a
//     checkpoint or snapshot is restored into it): a sorted component trie
//     indexed by branch identifier, O(report) updates and exact queries,
//     O(results) prefix collection, and a lazily materialized canonical
//     document gated by a generation counter (see indexed.go).
//   - StreamCache — the paper's deployed design: one XML document updated
//     and queried with a streaming (SAX-style) scan. Update cost grows with
//     document size, which is exactly the scaling behaviour Section 5.2
//     measures, so `inca-server -cache stream` keeps it selectable for the
//     paper's figures; LoadDump builds one from a fetched document on the
//     consumer side; and its tokenising variant (NewStreamCacheGeneric) is
//     the oracle the admission tests and FuzzCanonical compare against.
//   - NullCache — stores nothing: archive-only depots and the benchmarks
//     that time the archive path apart from the cache.
//
// The designs the paper tried, deployed as a file, or planned (DOM, file,
// split) live in internal/experiments/ablation, built on StreamCache's
// exported methods.
package depot

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sync"

	"inca/internal/branch"
	"inca/internal/metrics"
)

// Cache stores the latest report per branch identifier.
type Cache interface {
	// Update stores reportXML at id, replacing any previous report there.
	// It reports whether a new entry was added (false when an existing
	// entry was replaced), so callers never have to infer added-vs-replaced
	// from Count() deltas — which misreports under concurrent stores.
	Update(id branch.ID, reportXML []byte) (added bool, err error)
	// Query returns the serialized subtree rooted at the node id names
	// (the whole cache for the root identifier) and whether it exists.
	Query(id branch.ID) ([]byte, bool, error)
	// Reports returns every stored report under the given prefix.
	Reports(prefix branch.ID) ([]Stored, error)
	// Dump returns the entire cache document.
	Dump() []byte
	// Size returns the cache document size in bytes.
	Size() int
	// Count returns the number of stored reports.
	Count() int
	// Generation returns a counter that strictly increases with every
	// successful Update: equal generations mean a byte-identical Dump. The
	// HTTP querying interface turns it into ETags, so an unchanged cache
	// answers a conditional request with one comparison.
	Generation() uint64
}

// Stored is one cached report and its full branch identifier.
type Stored struct {
	ID  branch.ID
	XML []byte
}

// StreamCache is the single-XML-document cache (see package comment).
type StreamCache struct {
	mu      sync.RWMutex
	data    []byte
	count   int
	gen     uint64
	generic bool // use the generic token-based splice (benchmarks only)
	// fallbacks counts reports the fast splice had to tokenise; nil until
	// a depot asks for the count.
	fallbacks *metrics.Counter
}

// NewStreamCache returns an empty cache document.
func NewStreamCache() *StreamCache {
	return &StreamCache{data: []byte("<cache></cache>")}
}

// NewStreamCacheGeneric returns a cache whose updates use the
// general-purpose encoding/xml token scanner instead of the byte-level fast
// path — the cost of a generic SAX stack, kept for the parser ablation
// benchmarks.
func NewStreamCacheGeneric() *StreamCache {
	return &StreamCache{data: []byte("<cache></cache>"), generic: true}
}

// Update implements Cache by streaming the whole document through a
// scanner, splicing the new report in at the location the branch identifier
// names. The document is canonical (this package wrote every byte of it),
// so the byte-level fast path applies; see cache_fast.go and the generic
// token-based reference in spliceUpdate.
func (c *StreamCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []byte
	var added bool
	var err error
	if c.generic {
		out, added, err = spliceUpdate(c.data, id.Path(), reportXML)
	} else {
		out, added, err = fastSplice(c.data, id.Path(), reportXML, c.fallbacks)
	}
	if err != nil {
		return false, err
	}
	c.data = out
	c.gen++
	if added {
		c.count++
	}
	return added, nil
}

func (c *StreamCache) countFallbacks(n *metrics.Counter) { c.fallbacks = n }

// Query implements Cache.
func (c *StreamCache) Query(id branch.ID) ([]byte, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id.IsRoot() {
		return append([]byte(nil), c.data...), true, nil
	}
	return extractSubtree(c.data, id.Path())
}

// Reports implements Cache. Canonical documents take the byte-level fast
// path, with the generic token walk as fallback.
func (c *StreamCache) Reports(prefix branch.ID) ([]Stored, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.generic {
		if out, err := collectReportsFast(c.data, prefix); err == nil {
			return out, nil
		}
	}
	return collectReports(c.data, prefix)
}

// Dump implements Cache.
func (c *StreamCache) Dump() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]byte(nil), c.data...)
}

// Size implements Cache.
func (c *StreamCache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.data)
}

// Count implements Cache.
func (c *StreamCache) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.count
}

// Generation implements Cache.
func (c *StreamCache) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// LoadDump reconstructs a StreamCache from a previously dumped cache
// document (e.g. one fetched over the querying interface — the paper notes
// that retrieving the whole cache "tasks the data consumer with a large
// amount of XML processing"; this is that processing).
func LoadDump(data []byte) (*StreamCache, error) {
	c := NewStreamCache()
	if err := restoreDump(c, data); err != nil {
		return nil, err
	}
	return c, nil
}

// restoreDump stores every report of a dumped cache document into c, one
// Update each: how a checkpoint or snapshot comes back into whichever
// cache the depot was configured with.
func restoreDump(c Cache, data []byte) error {
	stored, err := collectReports(data, branch.ID{})
	if err != nil {
		return fmt.Errorf("depot: bad cache dump: %w", err)
	}
	for _, s := range stored {
		if _, err := c.Update(s.ID, s.XML); err != nil {
			return err
		}
	}
	return nil
}

// --- streaming machinery ---

func branchStart(p branch.Pair) xml.StartElement {
	return xml.StartElement{
		Name: xml.Name{Local: "branch"},
		Attr: []xml.Attr{
			{Name: xml.Name{Local: "name"}, Value: p.Name},
			{Name: xml.Name{Local: "value"}, Value: p.Value},
		},
	}
}

func branchAttrs(t xml.StartElement) (name, value string) {
	for _, a := range t.Attr {
		switch a.Name.Local {
		case "name":
			name = a.Value
		case "value":
			value = a.Value
		}
	}
	return
}

// pairBefore reports whether the new component comp sorts before an
// existing sibling (name, value) — children are kept in (name, value)
// order so the document is canonical and insertion points deterministic.
func pairBefore(comp branch.Pair, name, value string) bool {
	if comp.Name != name {
		return comp.Name < name
	}
	return comp.Value < value
}

// copySubtree copies start and its entire subtree from dec to enc.
func copySubtree(dec *xml.Decoder, enc *xml.Encoder, start xml.StartElement) error {
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			depth--
		}
		if err := enc.EncodeToken(tok); err != nil {
			return err
		}
	}
	return nil
}

// WriteEntry writes <entry> wrapping the report's token stream. A leading
// XML declaration is dropped with the whitespace around it: inside <entry>
// it is no longer the start of a document, and the encoder refuses it there.
// It is exported for the one cache outside this package that serializes
// entries itself (ablation.DOMCache), so its documents stay byte-identical.
func WriteEntry(enc *xml.Encoder, reportXML []byte) error {
	entry := xml.StartElement{Name: xml.Name{Local: "entry"}}
	if err := enc.EncodeToken(entry); err != nil {
		return err
	}
	dec := xml.NewDecoder(bytes.NewReader(reportXML))
	wrote := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("depot: report is not well-formed XML: %w", err)
		}
		if !wrote {
			switch t := tok.(type) {
			case xml.CharData:
				// Skip leading whitespace outside the root element.
				continue
			case xml.ProcInst:
				if t.Target == "xml" {
					continue
				}
			}
		}
		if err := enc.EncodeToken(tok); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return fmt.Errorf("depot: empty report payload")
	}
	return enc.EncodeToken(entry.End())
}

// writeNewSubtree writes nested branch elements for the remaining path
// components followed by the report entry.
func writeNewSubtree(enc *xml.Encoder, comps []branch.Pair, reportXML []byte) error {
	for _, p := range comps {
		if err := enc.EncodeToken(branchStart(p)); err != nil {
			return err
		}
	}
	if err := WriteEntry(enc, reportXML); err != nil {
		return err
	}
	for i := len(comps) - 1; i >= 0; i-- {
		if err := enc.EncodeToken(xml.EndElement{Name: xml.Name{Local: "branch"}}); err != nil {
			return err
		}
	}
	return nil
}

// spliceUpdate streams old through to a new buffer, placing reportXML at
// path (general→specific components). It reports whether a new entry was
// added (false when an existing entry was replaced).
func spliceUpdate(old []byte, path []branch.Pair, reportXML []byte) ([]byte, bool, error) {
	// Validate the payload up front so a malformed report cannot corrupt
	// the document after some tokens were already emitted.
	if err := wellFormed(reportXML); err != nil {
		return nil, false, err
	}
	dec := xml.NewDecoder(bytes.NewReader(old))
	var buf bytes.Buffer
	buf.Grow(len(old) + len(reportXML) + 256)
	enc := xml.NewEncoder(&buf)
	matched := 0
	inserted := false
	replaced := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("depot: corrupt cache: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "cache":
				if err := enc.EncodeToken(t); err != nil {
					return nil, false, err
				}
			case "branch":
				name, value := branchAttrs(t)
				if !inserted && matched < len(path) {
					comp := path[matched]
					if name == comp.Name && value == comp.Value {
						matched++
						if err := enc.EncodeToken(t); err != nil {
							return nil, false, err
						}
						continue
					}
					if pairBefore(comp, name, value) {
						if err := writeNewSubtree(enc, path[matched:], reportXML); err != nil {
							return nil, false, err
						}
						inserted = true
					}
				} else if !inserted && matched == len(path) {
					// Target node's branch children begin; the entry slot
					// precedes them.
					if err := WriteEntry(enc, reportXML); err != nil {
						return nil, false, err
					}
					inserted = true
				}
				if err := copySubtree(dec, enc, t); err != nil {
					return nil, false, err
				}
			case "entry":
				if !inserted && matched == len(path) {
					if err := dec.Skip(); err != nil {
						return nil, false, err
					}
					if err := WriteEntry(enc, reportXML); err != nil {
						return nil, false, err
					}
					inserted = true
					replaced = true
				} else if err := copySubtree(dec, enc, t); err != nil {
					return nil, false, err
				}
			default:
				if err := copySubtree(dec, enc, t); err != nil {
					return nil, false, err
				}
			}
		case xml.EndElement:
			if !inserted {
				if matched == len(path) {
					if err := WriteEntry(enc, reportXML); err != nil {
						return nil, false, err
					}
					inserted = true
				} else if t.Name.Local == "cache" {
					if err := writeNewSubtree(enc, path[matched:], reportXML); err != nil {
						return nil, false, err
					}
					inserted = true
				} else if t.Name.Local == "branch" && matched > 0 {
					if err := writeNewSubtree(enc, path[matched:], reportXML); err != nil {
						return nil, false, err
					}
					inserted = true
				}
			}
			if t.Name.Local == "branch" && matched > 0 {
				matched--
			}
			if err := enc.EncodeToken(t); err != nil {
				return nil, false, err
			}
		case xml.CharData:
			// Inter-element whitespace is dropped to keep the document
			// canonical; report payloads are copied inside copySubtree.
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, false, err
	}
	if !inserted {
		return nil, false, fmt.Errorf("depot: cache document has no root element")
	}
	return buf.Bytes(), !replaced, nil
}

// wellFormed checks that data is one balanced XML element tree.
func wellFormed(data []byte) error {
	dec := xml.NewDecoder(bytes.NewReader(data))
	elements := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("depot: report is not well-formed XML: %w", err)
		}
		if _, ok := tok.(xml.StartElement); ok {
			elements++
		}
	}
	if elements == 0 {
		return fmt.Errorf("depot: empty report payload")
	}
	return nil
}

// extractSubtree returns the serialized branch element at path.
func extractSubtree(data []byte, path []branch.Pair) ([]byte, bool, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	matched := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "branch" {
				if t.Name.Local == "cache" {
					continue
				}
				if err := dec.Skip(); err != nil {
					return nil, false, err
				}
				continue
			}
			name, value := branchAttrs(t)
			comp := path[matched]
			if name == comp.Name && value == comp.Value {
				matched++
				if matched == len(path) {
					var buf bytes.Buffer
					enc := xml.NewEncoder(&buf)
					if err := copySubtree(dec, enc, t); err != nil {
						return nil, false, err
					}
					if err := enc.Flush(); err != nil {
						return nil, false, err
					}
					return buf.Bytes(), true, nil
				}
				continue
			}
			if err := dec.Skip(); err != nil {
				return nil, false, err
			}
		case xml.EndElement:
			if t.Name.Local == "branch" {
				if matched > 0 {
					matched--
				}
				// Left a matched node without finding the next component.
				return nil, false, nil
			}
		}
	}
}

// collectReports walks the document gathering every entry under prefix.
func collectReports(data []byte, prefix branch.ID) ([]Stored, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []branch.Pair
	var out []Stored
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "cache":
			case "branch":
				name, value := branchAttrs(t)
				stack = append(stack, branch.Pair{Name: name, Value: value})
			case "entry":
				// Reconstruct the specific-first identifier from the stack.
				pairs := make([]branch.Pair, len(stack))
				for i, p := range stack {
					pairs[len(stack)-1-i] = p
				}
				id := branch.New(pairs...)
				var buf bytes.Buffer
				enc := xml.NewEncoder(&buf)
				depth := 1
				for depth > 0 {
					inner, err := dec.Token()
					if err != nil {
						return nil, err
					}
					switch inner.(type) {
					case xml.StartElement:
						depth++
					case xml.EndElement:
						depth--
						if depth == 0 {
							continue // drop the </entry>
						}
					}
					if err := enc.EncodeToken(inner); err != nil {
						return nil, err
					}
				}
				if err := enc.Flush(); err != nil {
					return nil, err
				}
				if id.HasSuffix(prefix) {
					out = append(out, Stored{ID: id, XML: buf.Bytes()})
				}
			default:
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			if t.Name.Local == "branch" && len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
}
