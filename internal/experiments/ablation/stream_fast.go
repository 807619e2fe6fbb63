package ablation

import (
	"bytes"
	"encoding/xml"
	"fmt"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/metrics"
	"inca/internal/xmlscan"
)

// This file implements the byte-level splice path for StreamCache.
//
// The cache document is canonical: every byte of it is what encoding/xml
// writes — rendered by it, or admitted by xmlscan.Canonical as already in
// that form — and encoding/xml escapes '<' and '>' everywhere outside tag
// delimiters (character data and attribute values alike). That
// guarantee lets updates scan tags directly with internal/xmlscan — the
// same single-pass streaming discipline as the paper's SAX cache, minus a
// general-purpose parser's overhead — and splice the new entry in with one
// copy. The canonical renderer never self-closes an element, so an Empty
// tag at branch level is a structural surprise like any other.
//
// spliceUpdate (stream.go) is the generic-token reference implementation;
// property tests assert the two agree.

// renderFragment builds the bytes for the remaining path components
// wrapping the report entry (or just the entry when comps is empty).
func renderFragment(comps []branch.Pair, reportXML []byte, fallbacks *metrics.Counter) ([]byte, error) {
	payload, err := depot.EntryPayload(reportXML, fallbacks)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len("<entry></entry>") + len(payload))
	if len(comps) > 0 { // a replacement, the steady state, opens no branch
		enc := xml.NewEncoder(&buf) // open tags only: the encoder never self-closes
		for _, p := range comps {
			if err := enc.EncodeToken(branchStart(p)); err != nil {
				return nil, err
			}
		}
		if err := enc.Flush(); err != nil {
			return nil, err
		}
	}
	buf.WriteString("<entry>")
	buf.Write(payload)
	buf.WriteString("</entry>")
	for range comps {
		buf.WriteString("</branch>")
	}
	return buf.Bytes(), nil
}

// fastSplice performs the spliceUpdate operation on a canonical document
// with a single byte-level pass and one copy.
func fastSplice(old []byte, path []branch.Pair, reportXML []byte, fallbacks *metrics.Counter) ([]byte, bool, error) {
	// A canonical report has passed a stricter check than wellFormed's; the
	// rest are held to it before anything is scanned, as spliceUpdate does.
	if _, ok := xmlscan.Canonical(reportXML); !ok {
		if err := wellFormed(reportXML); err != nil {
			return nil, false, err
		}
	}
	matched := 0
	pos := 0
	insertAt := -1   // where the new fragment goes
	replaceEnd := -1 // end of the replaced entry, if replacing
	var fragComps []branch.Pair

	for insertAt < 0 {
		t, ok, err := xmlscan.ScanTag(old, pos)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, fmt.Errorf("depot: cache document has no root element")
		}
		if t.Kind == xmlscan.Empty {
			return nil, false, fmt.Errorf("depot: self-closed <%s> at %d", t.Name, t.Start)
		}
		if t.Kind == xmlscan.Close {
			// Leaving the deepest matched node (or the cache root):
			// everything still unmatched nests here, before the close.
			insertAt = t.Start
			fragComps = path[matched:]
			break
		}
		switch string(t.Name) {
		case "cache":
			pos = t.End
		case "branch":
			if matched < len(path) {
				name, _ := xmlscan.AttrValue(t.Attrs, "name")
				value, _ := xmlscan.AttrValue(t.Attrs, "value")
				comp := path[matched]
				if name == comp.Name && value == comp.Value {
					matched++
					pos = t.End
					continue
				}
				if pairBefore(comp, name, value) {
					insertAt = t.Start
					fragComps = path[matched:]
					break
				}
			} else {
				// Target fully matched; its entry slot precedes branch
				// children.
				insertAt = t.Start
				fragComps = nil
				break
			}
			// Unrelated sibling: skip it wholesale.
			if pos, err = xmlscan.SkipSubtree(old, t); err != nil {
				return nil, false, err
			}
		case "entry":
			if matched == len(path) {
				end, err := xmlscan.SkipSubtree(old, t)
				if err != nil {
					return nil, false, err
				}
				insertAt = t.Start
				replaceEnd = end
				fragComps = nil
				break
			}
			if pos, err = xmlscan.SkipSubtree(old, t); err != nil {
				return nil, false, err
			}
		default:
			// Foreign element at branch level: preserve it untouched.
			if pos, err = xmlscan.SkipSubtree(old, t); err != nil {
				return nil, false, err
			}
		}
	}

	frag, err := renderFragment(fragComps, reportXML, fallbacks)
	if err != nil {
		return nil, false, err
	}
	tail := insertAt
	if replaceEnd >= 0 {
		tail = replaceEnd
	}
	out := make([]byte, 0, len(old)+len(frag))
	out = append(out, old[:insertAt]...)
	out = append(out, frag...)
	out = append(out, old[tail:]...)
	return out, replaceEnd < 0, nil
}
