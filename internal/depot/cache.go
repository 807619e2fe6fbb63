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
// Two caches live here:
//
//   - IndexedCache — what every depot and every consumer-side mirror runs
//     on (New, NewWithOptions, OpenDisk, ReadSnapshot and LoadDump build
//     it): a sorted component trie indexed by branch identifier, O(report)
//     updates and exact queries, O(results) prefix collection, and a lazily
//     materialized canonical document gated by a generation counter (see
//     indexed.go).
//   - NullCache — stores nothing: archive-only depots and the benchmarks
//     that time the archive path apart from the cache.
//
// The paper's own single-document stream cache and the designs it tried or
// planned (DOM, file, split) live in internal/experiments/ablation. They
// share this package's admission point (EntryPayload) and dump restorer
// (RestoreDump), so they store the same bytes, and the stream cache is the
// byte oracle the IndexedCache is held to in this package's external tests.
package depot

import (
	"bytes"
	"encoding/xml"
	"fmt"

	"inca/internal/branch"
	"inca/internal/metrics"
	"inca/internal/xmlscan"
)

// Cache stores the latest report per branch identifier.
type Cache interface {
	// Update stores reportXML at id, replacing any previous report there.
	// It reports whether a new entry was added (false when an existing
	// entry was replaced), so callers never have to infer added-vs-replaced
	// from Count() deltas — which misreports under concurrent stores.
	Update(id branch.ID, reportXML []byte) (added bool, err error)
	// Query returns the serialized subtree rooted at the node id names
	// (the whole cache for the root identifier) and whether it exists. The
	// whole cache is Dump's document: shared and read-only.
	Query(id branch.ID) ([]byte, bool, error)
	// Reports returns every stored report under the given prefix. The
	// slices of each Stored are shared with the cache and read-only: a
	// later Update replaces a stored report, it never edits one.
	Reports(prefix branch.ID) ([]Stored, error)
	// Dump returns the entire cache document, shared and read-only: a
	// later Update makes a new document, it never edits this one.
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

// Stored is one cached report and its full branch identifier. Its slices
// are shared with the cache that returned it: read-only.
type Stored struct {
	ID  branch.ID
	XML []byte
	// Attr is ID as an XML attribute value: ID.String() through
	// xml.EscapeText, what /reports writes as <stored branch="...">.
	Attr []byte
}

// NewStored is the Stored for a report at id, its attribute value
// rendered: how a cache that keeps no rendered identifier answers Reports.
func NewStored(id branch.ID, reportXML []byte) Stored {
	return Stored{ID: id, XML: reportXML, Attr: escapeID(id)}
}

// escapeID renders id as an XML attribute value, as xml.EscapeText writes
// it.
func escapeID(id branch.ID) []byte {
	var buf bytes.Buffer
	xml.EscapeText(&buf, []byte(id.String()))
	return buf.Bytes()
}

// LoadDump rebuilds a cache from what Query(at) answered, e.g. a /cache
// body or a feed snapshot fetched over the querying interface (the paper
// notes that retrieving the whole cache "tasks the data consumer with a
// large amount of XML processing"; this is that processing).
func LoadDump(data []byte, at branch.ID) (*IndexedCache, error) {
	c := NewIndexedCache()
	if err := RestoreDump(c, data, at); err != nil {
		return nil, err
	}
	return c, nil
}

// RestoreDump stores every report of a dumped cache document into c, one
// Update each: how a checkpoint, a snapshot or a fetched document comes
// back into a cache. See WalkDump for data and at.
func RestoreDump(c Cache, data []byte, at branch.ID) error {
	err := WalkDump(data, at, func(id branch.ID, payload []byte) error {
		_, err := c.Update(id, payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("depot: bad cache dump: %w", err)
	}
	return nil
}

// WalkDump calls fn for every entry of a cache document, in document
// order, with the entry's full identifier and its payload: the bytes
// between <entry> and </entry>, aliasing data. The document is what
// Query(at) answers: the whole <cache> for the root identifier, otherwise
// at's own <branch> element, which does not carry its ancestors — at
// supplies them. It must be one a Cache wrote: the walk is a byte-level
// scan (internal/xmlscan) that fails on any structural surprise.
func WalkDump(data []byte, at branch.ID, fn func(id branch.ID, payload []byte) error) error {
	id := at.Parent() // the open element; Child copies, so fn may keep it
	base, rooted := id.Depth(), false
	for pos := 0; ; {
		t, ok, err := xmlscan.ScanTag(data, pos)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if t.Kind == xmlscan.Empty {
			return fmt.Errorf("depot: self-closed <%s> at %d", t.Name, t.Start)
		}
		if t.Kind == xmlscan.Close {
			if string(t.Name) == "branch" {
				if id.Depth() == base {
					return fmt.Errorf("depot: unbalanced branch close at %d", t.Start)
				}
				id.Pairs = id.Pairs[1:]
			}
			pos = t.End
			continue
		}
		switch string(t.Name) {
		case "cache":
			rooted = true
			pos = t.End
		case "branch":
			name, ok1 := xmlscan.AttrValue(t.Attrs, "name")
			value, ok2 := xmlscan.AttrValue(t.Attrs, "value")
			if !ok1 || !ok2 {
				return fmt.Errorf("depot: branch element without name/value at %d", t.Start)
			}
			id = id.Child(name, value)
			rooted = true
			pos = t.End
		case "entry":
			if pos, err = xmlscan.SkipSubtree(data, t); err != nil {
				return err
			}
			// The payload ends where the close tag just skipped begins.
			if err := fn(id, data[t.End:bytes.LastIndexByte(data[:pos], '<')]); err != nil {
				return err
			}
		default:
			// Foreign element preserved in the cache: skip it wholesale.
			if pos, err = xmlscan.SkipSubtree(data, t); err != nil {
				return err
			}
		}
	}
	if id.Depth() != base {
		return fmt.Errorf("depot: %d unclosed branch elements", id.Depth()-base)
	}
	if !rooted {
		return fmt.Errorf("depot: document has no cache root")
	}
	return nil
}

// EntryPayload is the one admission point of every cache: it returns the
// bytes a report occupies between <entry> and </entry>, its canonical form
// (xmlscan.AppendCanonical). A report already in that form
// (xmlscan.Canonical: one byte-level pass, no allocation) is its own
// payload, and the returned slice aliases reportXML. Anything else, every
// malformed report included, is written out by AppendCanonical and counted
// in fallbacks (nil counts nothing). Storing a payload again stores the
// same bytes.
func EntryPayload(reportXML []byte, fallbacks *metrics.Counter) ([]byte, error) {
	var none *archiveScratch // no paths to extract
	payload, canonical, _, _, err := none.admit(reportXML)
	if !canonical && fallbacks != nil {
		fallbacks.Inc()
	}
	return payload, err
}
