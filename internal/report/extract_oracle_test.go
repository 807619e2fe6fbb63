package report

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The tokenising extractor ExtractValues replaced, kept as the oracle for
// FuzzExtractValues and the benchmarks: the same walk, driven by
// encoding/xml's Decoder instead of an xmlscan.Cursor. One line differs
// from the code it was moved from, marked below: an element's second <ID>
// child used to overwrite the first, where parseNode (and so Parse + Find,
// the oracle above this one) keeps the first and takes the second for an
// ordinary child.

// oraclePathState tracks one path's progress through the body scan. Matching
// reproduces Node.Find exactly, including its refusal to backtrack: each
// component commits to the first matching element in document order, and
// if that element closes without completing the path, the path fails.
type oraclePathState struct {
	comps []pathComp
	// anchor is 0 when comps[0] matched the body root itself, 1 when the
	// root acts as a container and comps[0] matches among its children.
	anchor int
	// next is the index of the next component to match; component k of an
	// alive state is committed to the open element at depth anchor+k.
	next  int
	dead  bool
	found bool
	value float64
	ok    bool
}

func (s *oraclePathState) resolved() bool { return s.dead || s.found }

// errOracleScanDone aborts the document scan early once every requested value
// is settled.
var errOracleScanDone = errors.New("report: extraction complete")

var (
	oracleBodyCloseTag = []byte("</body>")
	oracleCDATAOpen    = []byte("<![CDATA[")
	oracleCommentOpen  = []byte("<!--")
)

// extractValuesTokenising scans a serialized report for the given compiled paths.
// Header and footer handling mirrors Parse: a document without a header
// is rejected; the footer is required (and read) only when a success path
// is requested — otherwise the scan ends as soon as the body is resolved.
// When the footer is needed, a scan whose values all settled early jumps
// to the body's end tag by byte search instead of tokenizing the rest of
// the body, so the success flag costs O(footer), not O(report).
func extractValuesTokenising(data []byte, paths []Path) (Extraction, error) {
	ex := Extraction{
		Values: make([]float64, len(paths)),
		Found:  make([]bool, len(paths)),
	}
	needFooter := false
	states := make([]*oraclePathState, 0, len(paths))
	for _, p := range paths {
		if p.success {
			needFooter = true
			continue
		}
		states = append(states, &oraclePathState{comps: p.comps})
	}

	// In a document free of CDATA sections and comments — every report this
	// package writes, and anything a conforming producer emits — a "<" in
	// character data must be escaped, so the last literal "</body>" can only
	// be the body's end tag. That lets the scan, once every value is
	// settled, jump straight to the footer instead of tokenizing the rest
	// of the body. footerJump < 0 disables the jump (and with it the
	// mid-tree abort when the footer is still needed).
	footerJump := -1
	if needFooter && !bytes.Contains(data, oracleCDATAOpen) && !bytes.Contains(data, oracleCommentOpen) {
		footerJump = bytes.LastIndex(data, oracleBodyCloseTag)
	}
	abortEarly := !needFooter || footerJump >= 0

	dec := xml.NewDecoder(bytes.NewReader(data))
	start, err := nextStart(dec)
	if err != nil {
		return ex, fmt.Errorf("report: no root element: %w", err)
	}
	if start.Name.Local != "incaReport" {
		return ex, fmt.Errorf("report: root element %q, want incaReport", start.Name.Local)
	}
	sawHeader, sawFooter := false, false
	finish := func() (Extraction, error) {
		if !sawHeader {
			return ex, fmt.Errorf("report: missing header")
		}
		for i, p := range paths {
			if p.success {
				ex.Values[i] = 0
				if ex.Completed {
					ex.Values[i] = 1
				}
				ex.Found[i] = true
				continue
			}
		}
		j := 0
		for i, p := range paths {
			if p.success {
				continue
			}
			st := states[j]
			j++
			if st.found && st.ok {
				ex.Values[i] = st.value
				ex.Found[i] = true
			}
		}
		return ex, nil
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return ex, fmt.Errorf("report: truncated document: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "header":
				if err := oracleHeaderGMT(dec, &ex.GMT); err != nil {
					return ex, err
				}
				sawHeader = true
			case "body":
				err := oracleScanBody(dec, states, abortEarly)
				if err == errOracleScanDone && !needFooter {
					return finish()
				}
				if err != nil && err != errOracleScanDone {
					return ex, err
				}
				if err == errOracleScanDone {
					// Settled mid-body but the footer is still needed.
					if footerJump >= 0 {
						// Jump past the body's end tag and resume
						// tokenizing at the footer.
						dec = xml.NewDecoder(bytes.NewReader(data[footerJump+len(oracleBodyCloseTag):]))
					} else if err := dec.Skip(); err != nil {
						// errOracleScanDone without a jump target only arises at
						// the body's top level, so Skip unwinds to </body>.
						return ex, fmt.Errorf("report: truncated document: %w", err)
					}
				}
				if !needFooter {
					return finish()
				}
			case "footer":
				var f Footer
				if err := parseFooter(dec, &f); err != nil {
					return ex, err
				}
				ex.Completed = f.Completed
				sawFooter = true
				if sawHeader {
					return finish()
				}
			default:
				if err := dec.Skip(); err != nil {
					return ex, err
				}
			}
		case xml.EndElement:
			if t.Name.Local == "incaReport" {
				if needFooter && !sawFooter {
					return ex, fmt.Errorf("report: missing footer")
				}
				return finish()
			}
		}
	}
}

// oracleHeaderGMT reads only the <gmt> child of the header, skipping
// everything else.
func oracleHeaderGMT(dec *xml.Decoder, gmt *time.Time) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local == "gmt" {
				s, err := collectText(dec)
				if err != nil {
					return err
				}
				ts, err := time.Parse(gmtLayout, strings.TrimSpace(s))
				if err != nil {
					return fmt.Errorf("report: bad gmt %q: %w", s, err)
				}
				*gmt = ts
				continue
			}
			if err := dec.Skip(); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		}
	}
}

// oracleScanBody walks the body's root element (the body may be empty).
// Returns errOracleScanDone when every state resolved before the body ended.
// With abort set, the walk additionally bails out mid-tree the moment
// every state is settled — which means a multi-rooted body (that Parse
// would reject) can still yield values when everything settles inside the
// first root; the caller opts in only when it can recover the stream.
func oracleScanBody(dec *xml.Decoder, states []*oraclePathState, abort bool) error {
	if oracleAllResolved(states) {
		return errOracleScanDone
	}
	sawRoot := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("report: truncated document: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if sawRoot {
				// Parse rejects multi-rooted bodies; so do we, so the
				// archive path skips exactly the documents Parse skips.
				return fmt.Errorf("report: body has multiple roots")
			}
			sawRoot = true
			if err := oracleScanElement(dec, t, 0, states, abort); err != nil {
				return err
			}
			if oracleAllResolved(states) {
				return errOracleScanDone
			}
		case xml.EndElement:
			return nil // </body>
		}
	}
}

func oracleAllResolved(states []*oraclePathState) bool {
	for _, s := range states {
		if !s.resolved() {
			return false
		}
	}
	return true
}

// oracleSettled reports whether every state is finished with the token stream:
// dead, or found with its value already parsed. Unlike oracleAllResolved —
// which is only safe once the body root has closed — oracleSettled can be
// consulted mid-tree: a found state whose target element is still open
// has not parsed its value yet and keeps the scan alive.
func oracleSettled(states []*oraclePathState) bool {
	for _, s := range states {
		if !s.dead && !(s.found && s.ok) {
			return false
		}
	}
	return true
}

// oracleScanElement processes one body element whose StartElement has
// already been consumed, advancing every path state and recursing only
// where a state can still match.
func oracleScanElement(dec *xml.Decoder, start xml.StartElement, depth int, states []*oraclePathState, abort bool) error {
	tag := start.Name.Local
	id := ""
	var text strings.Builder
	// Phase A: the element's identifier arrives as a leading <ID> child
	// (Figure 2), so matching is deferred until the first element child
	// (or the end tag) reveals whether the element carries one.
	var pending *xml.StartElement
	for pending == nil {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("report: truncated document: %w", err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			text.Write(t)
		case xml.StartElement:
			if t.Name.Local == "ID" && id == "" { // the parent had no `&& id == ""`
				s, err := collectText(dec)
				if err != nil {
					return err
				}
				id = strings.TrimSpace(s)
				continue
			}
			el := t
			pending = &el
		case xml.EndElement:
			oracleDecideMatches(tag, id, depth, states)
			oracleFinalizeElement(depth, states, text.String(), false)
			return nil
		}
	}

	oracleDecideMatches(tag, id, depth, states)
	isBranch := true // pending != nil: at least one real element child

	// Phase B: process children. Recurse only while some state can match
	// at depth+1 (its committed chain runs through this element); anything
	// else is skipped token-by-token with no materialization.
	first := true
	for {
		var tok xml.Token
		var err error
		if first {
			tok, first = *pending, false
		} else {
			tok, err = dec.Token()
			if err != nil {
				return fmt.Errorf("report: truncated document: %w", err)
			}
		}
		switch t := tok.(type) {
		case xml.CharData:
			text.Write(t)
		case xml.StartElement:
			if oracleDescendantInterest(depth, states) {
				if err := oracleScanElement(dec, t, depth+1, states, abort); err != nil {
					return err
				}
				// Once every value is settled, nothing later in the
				// document can change it (Find commits to first matches):
				// abandon the walk with open elements on the stack and let
				// the caller jump to the footer.
				if abort && oracleSettled(states) {
					return errOracleScanDone
				}
			} else if err := dec.Skip(); err != nil {
				return fmt.Errorf("report: truncated document: %w", err)
			}
		case xml.EndElement:
			oracleFinalizeElement(depth, states, text.String(), isBranch)
			return nil
		}
	}
}

// oracleDecideMatches advances every alive state whose next component is
// eligible at this element.
func oracleDecideMatches(tag, id string, depth int, states []*oraclePathState) {
	for _, s := range states {
		if s.resolved() {
			continue
		}
		if depth == 0 {
			// Find tries the body root itself first, then treats it as a
			// container whose children may match the root component.
			if oracleCompMatches(s.comps[0], tag, id) {
				s.anchor, s.next = 0, 1
			} else {
				s.anchor, s.next = 1, 0
				continue
			}
		} else {
			if s.anchor+s.next != depth || !oracleCompMatches(s.comps[s.next], tag, id) {
				continue
			}
			s.next++
		}
		if s.next == len(s.comps) {
			s.found = true // target element: value parsed at finalize
		}
	}
}

// oracleDescendantInterest reports whether any state can still match a child at
// depth+1 of the current element.
func oracleDescendantInterest(depth int, states []*oraclePathState) bool {
	for _, s := range states {
		if s.resolved() {
			// A found state whose target element is this one still needs
			// the element's own character data, which phase B collects —
			// children carry nothing for it.
			continue
		}
		if s.anchor+s.next == depth+1 {
			return true
		}
	}
	return false
}

// oracleFinalizeElement closes the element at depth: targets committed here
// parse their value; states whose chain tip is this element die (Find
// never backtracks to a later sibling).
func oracleFinalizeElement(depth int, states []*oraclePathState, text string, isBranch bool) {
	for _, s := range states {
		if s.dead {
			continue
		}
		if s.found {
			if s.anchor+s.next-1 == depth && !s.ok {
				// This element is the target. Branch targets have no
				// character data, exactly as Node.Text is empty for
				// branches, so Float fails on them the same way.
				if !isBranch {
					if v, err := strconv.ParseFloat(strings.TrimSpace(text), 64); err == nil {
						s.value, s.ok = v, true
						continue
					}
				}
				s.dead = true // unparseable target: resolved, not found
			}
			continue
		}
		if s.next > 0 && s.anchor+s.next-1 == depth {
			s.dead = true
		} else if s.next == 0 && s.anchor == 1 && depth == 0 {
			s.dead = true
		}
	}
}

func oracleCompMatches(c pathComp, tag, id string) bool {
	return tag == c.tag && (c.id == "" || id == c.id)
}
