package ablation

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sync"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/metrics"
)

var _ depot.Cache = (*StreamCache)(nil)

// StreamCache is the paper's deployed design (Section 3.2.2): one XML
// document updated and queried with a streaming (SAX-style) scan. Update
// cost grows with document size, which is exactly the scaling behaviour
// Section 5.2 measures and fig9, Table 4 and the query ablation reproduce.
// It is also the byte oracle for depot.IndexedCache: the cross-cache tables
// in internal/depot's external tests hold the two to identical documents.
type StreamCache struct {
	mu      sync.RWMutex
	data    []byte
	count   int
	gen     uint64
	generic bool // use the generic token-based splice (benchmarks only)
	// fallbacks counts reports the fast splice had to tokenise; nil until
	// CountFallbacks.
	fallbacks *metrics.Counter
}

// NewStreamCache returns an empty cache document.
func NewStreamCache() *StreamCache {
	return &StreamCache{data: []byte("<cache></cache>")}
}

// NewStreamCacheGeneric returns a cache whose updates use the
// general-purpose encoding/xml token scanner instead of the byte-level fast
// path — the cost of a generic SAX stack, kept for the parser ablation
// benchmark and as the tokenising oracle of the admission tests.
func NewStreamCacheGeneric() *StreamCache {
	return &StreamCache{data: []byte("<cache></cache>"), generic: true}
}

// Update implements Cache by streaming the whole document through a
// scanner, splicing the new report in at the location the branch identifier
// names. The document is canonical (this cache wrote every byte of it),
// so the byte-level fast path applies; see stream_fast.go and the generic
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

// CountFallbacks has the cache count in n the reports its insert tokenised
// (depot.EntryPayload). Call it before the first Update.
func (c *StreamCache) CountFallbacks(n *metrics.Counter) { c.fallbacks = n }

// Query implements Cache.
func (c *StreamCache) Query(id branch.ID) ([]byte, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id.IsRoot() {
		return append([]byte(nil), c.data...), true, nil
	}
	return extractSubtree(c.data, id.Path())
}

// Reports implements Cache: one byte-level scan of the whole document,
// whatever the prefix.
func (c *StreamCache) Reports(prefix branch.ID) ([]depot.Stored, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []depot.Stored
	err := depot.WalkDump(c.data, branch.ID{}, func(id branch.ID, payload []byte) error {
		if id.HasSuffix(prefix) {
			out = append(out, depot.Stored{ID: id, XML: append([]byte(nil), payload...)})
		}
		return nil
	})
	return out, err
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

// LoadStreamDump rebuilds a StreamCache from a dumped cache document, one
// splice per stored report.
func LoadStreamDump(data []byte) (*StreamCache, error) {
	c := NewStreamCache()
	if err := depot.RestoreDump(c, data, branch.ID{}); err != nil {
		return nil, err
	}
	return c, nil
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

// writeNewSubtree writes nested branch elements for the remaining path
// components followed by the report entry.
func writeNewSubtree(enc *xml.Encoder, comps []branch.Pair, reportXML []byte) error {
	for _, p := range comps {
		if err := enc.EncodeToken(branchStart(p)); err != nil {
			return err
		}
	}
	if err := depot.WriteEntry(enc, reportXML); err != nil {
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
					if err := depot.WriteEntry(enc, reportXML); err != nil {
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
					if err := depot.WriteEntry(enc, reportXML); err != nil {
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
					if err := depot.WriteEntry(enc, reportXML); err != nil {
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
