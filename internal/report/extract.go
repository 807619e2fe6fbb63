package report

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"inca/internal/xmlscan"
)

// Streaming value extraction: the depot's archive path needs a handful of
// numeric leaves (and the pass/fail footer flag) out of each matching
// report, not the whole document. Parse materializes every element of the
// open-schema body as a Node; for archival that work is thrown away
// immediately after a few Float lookups. ExtractValues walks the document
// once with an xmlscan.Cursor (no encoding/xml: the cache insert has
// already held the report to well-formedness, and what the archive needs
// is structure and a few runs of text), descends only into elements that
// can still lie on a requested path (everything else is skipped tag by
// tag), and stops as soon as every requested value is resolved — so
// archive-side cost is proportional to the extracted paths, not to the
// report size.
//
// On the depot's store path the same walk runs inside the cache's
// admission scan instead (Admit, admit.go), so a canonical report is read
// once. ExtractValues is the fallback for every other report and the
// oracle Admit is held to (FuzzAdmit in internal/depot).

// Path is a compiled Inca path expression (see Node.Find for the
// semantics). The zero-value path — compiled from the empty string — is
// the "success" path: it extracts 1/0 from the footer's completed flag,
// which is how availability series are built.
type Path struct {
	raw string
	// comps is the expression in root-first order (Find takes leaf-first).
	comps   []pathComp
	success bool
}

// CompilePath parses an Inca path expression once, for repeated use with
// ExtractValues. The empty expression compiles to the success path.
func CompilePath(path string) (Path, error) {
	comps, err := splitPath(path)
	if err != nil {
		return Path{}, err
	}
	if len(comps) == 0 {
		return Path{raw: path, success: true}, nil
	}
	rev := make([]pathComp, len(comps))
	for i, c := range comps {
		rev[len(comps)-1-i] = c
	}
	return Path{raw: path, comps: rev}, nil
}

// MustCompilePath is CompilePath that panics on error, for literals.
func MustCompilePath(path string) Path {
	p, err := CompilePath(path)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the original expression.
func (p Path) String() string { return p.raw }

// Success reports whether p is the success (empty) path.
func (p Path) Success() bool { return p.success }

// Extraction is the result of one ExtractValues scan.
type Extraction struct {
	// GMT is the report header timestamp (zero when the header carries
	// none, exactly as Parse would return).
	GMT time.Time
	// Completed is the footer flag; it is only populated when at least one
	// requested path was the success path (otherwise the scan stops before
	// the footer).
	Completed bool
	// Values and Found are indexed like the paths argument: Found[i]
	// reports whether path i resolved to a parseable numeric leaf (success
	// paths always resolve once the footer is seen).
	Values []float64
	Found  []bool
}

// pathState tracks one path's progress through the body scan. Matching
// reproduces Node.Find exactly, including its refusal to backtrack: each
// component commits to the first matching element in document order, and
// if that element closes without completing the path, the path fails.
type pathState struct {
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

func (s *pathState) resolved() bool { return s.dead || s.found }

// errScanDone aborts the document scan early once every requested value
// is settled.
var errScanDone = errors.New("report: extraction complete")

var (
	errMissingHeader = errors.New("report: missing header")
	errMissingFooter = errors.New("report: missing footer")
	errMultiRoot     = errors.New("report: body has multiple roots")
)

var (
	bodyCloseTag = []byte("</body>")
	cdataOpen    = []byte("<![CDATA[")
	commentOpen  = []byte("<!--")
)

// extractor is one ExtractValues scan: the cursor, the path states, and
// the scratch the element walk decodes text into.
type extractor struct {
	cur    xmlscan.Cursor
	states []pathState
	// abort lets the body walk bail out mid-tree the moment every state
	// is settled; set only when the caller can recover the stream.
	abort bool
	// text holds the character data of the open elements on the walk's
	// path, each element's run starting where its parent's stood when it
	// opened; id is the scratch for one element read whole: the <ID> of the
	// element being decided, the header's <gmt>, the footer's flags.
	text, id []byte
}

// ExtractValues scans a serialized report for the given compiled paths.
// Header and footer handling mirrors Parse: a document without a header
// is rejected; the footer is required (and read) only when a success path
// is requested — otherwise the scan ends as soon as the body is resolved.
// When the footer is needed, a scan whose values all settled early jumps
// to the body's end tag by byte search instead of walking the rest of the
// body, so the success flag costs O(footer), not O(report).
//
// On a document encoding/xml accepts and Parse takes for a report with its
// sections in order, the result is what Parse followed by Find and Float
// gives. The scan checks structure only, so where encoding/xml would stop
// at a malformed name, reference or character the scan may read on: the
// depot archives a report only after its cache has held the same bytes to
// full well-formedness.
func ExtractValues(data []byte, paths []Path) (Extraction, error) {
	return new(Extractor).ExtractValues(data, paths)
}

// Extractor runs ExtractValues and Admit scans and keeps their scratch for
// the next one: the path states, the text buffers and the result slices. A
// depot archiving at ingest rate pools Extractors, so a steady stream of
// scans allocates nothing. An Extractor is not safe for concurrent use.
type Extractor struct {
	x      extractor
	a      admitter
	values []float64
	found  []bool
}

// ExtractValues is the package function of that name on e's scratch. The
// Extraction's Values and Found are e's own, valid until its next scan.
func (e *Extractor) ExtractValues(data []byte, paths []Path) (Extraction, error) {
	ex, needFooter := e.reset(paths)
	x := &e.x

	// In a document free of CDATA sections and comments — every report this
	// package writes, and anything a conforming producer emits — a "<" in
	// character data must be escaped, so the last literal "</body>" can only
	// be the body's end tag. That lets the scan, once every value is
	// settled, jump straight to the footer instead of walking the rest of
	// the body. footerJump < 0 disables the jump (and with it the mid-tree
	// abort when the footer is still needed).
	footerJump := -1
	if needFooter && !bytes.Contains(data, cdataOpen) && !bytes.Contains(data, commentOpen) {
		footerJump = bytes.LastIndex(data, bodyCloseTag)
	}
	x.abort = !needFooter || footerJump >= 0

	x.cur.Reset(data)
	for {
		tok, err := x.cur.Next()
		if err != nil {
			return ex, fmt.Errorf("report: no root element: %w", err)
		}
		if tok.Kind != xmlscan.StartElement {
			continue
		}
		if string(tok.Name) != "incaReport" {
			return ex, fmt.Errorf("report: root element %q, want incaReport", tok.Name)
		}
		break
	}
	sawHeader, sawFooter := false, false
	finish := func() (Extraction, error) {
		if !sawHeader {
			return ex, errMissingHeader
		}
		x.results(&ex, paths)
		return ex, nil
	}
	for {
		tok, err := x.cur.Next()
		if err != nil {
			return ex, truncated(err)
		}
		switch tok.Kind {
		case xmlscan.StartElement:
			switch string(tok.Name) {
			case "header":
				if err := x.headerGMT(&ex.GMT); err != nil {
					return ex, err
				}
				sawHeader = true
			case "body":
				err := x.body()
				if err != nil && err != errScanDone {
					return ex, err
				}
				if !needFooter {
					return finish()
				}
				if err == errScanDone {
					// Settled mid-body but the footer is still needed.
					if footerJump >= 0 {
						// Jump past the body's end tag and resume at the
						// footer, with nothing open: the root's end tag is
						// never reached when the header came first.
						x.cur.Reset(data[footerJump+len(bodyCloseTag):])
					} else if err := x.cur.Skip(); err != nil {
						// errScanDone without a jump target only arises at
						// the body's top level, so Skip unwinds to </body>.
						return ex, truncated(err)
					}
				}
			case "footer":
				if ex.Completed, err = x.footerCompleted(); err != nil {
					return ex, err
				}
				sawFooter = true
				if sawHeader {
					return finish()
				}
			default:
				if err := x.cur.Skip(); err != nil {
					return ex, err
				}
			}
		case xmlscan.EndElement:
			if needFooter && !sawFooter {
				return ex, errMissingFooter
			}
			return finish()
		}
	}
}

// reset readies e for a scan of paths: the result slices sized and
// cleared, one state per value path. needFooter reports whether one of
// the paths is the success path.
func (e *Extractor) reset(paths []Path) (ex Extraction, needFooter bool) {
	e.values = slices.Grow(e.values[:0], len(paths))[:len(paths)]
	e.found = slices.Grow(e.found[:0], len(paths))[:len(paths)]
	clear(e.values)
	clear(e.found)
	x := &e.x
	x.states, x.abort, x.text = x.states[:0], false, x.text[:0]
	for _, p := range paths {
		if p.success {
			needFooter = true
			continue
		}
		x.states = append(x.states, pathState{comps: p.comps})
	}
	return Extraction{Values: e.values, Found: e.found}, needFooter
}

// results fills ex's Values and Found from the settled states and the
// footer flag, as a scan that saw the header ends.
func (x *extractor) results(ex *Extraction, paths []Path) {
	j := 0
	for i, p := range paths {
		if p.success {
			if ex.Completed {
				ex.Values[i] = 1
			}
			ex.Found[i] = true
			continue
		}
		if st := &x.states[j]; st.found && st.ok {
			ex.Values[i] = st.value
			ex.Found[i] = true
		}
		j++
	}
}

func truncated(err error) error {
	return fmt.Errorf("report: truncated document: %w", err)
}

// headerGMT reads only the <gmt> child of the header, skipping everything
// else.
func (x *extractor) headerGMT(gmt *time.Time) error {
	for {
		tok, err := x.cur.Next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmlscan.StartElement:
			if string(tok.Name) != "gmt" {
				if err := x.cur.Skip(); err != nil {
					return err
				}
				continue
			}
			if x.id, err = x.cur.Text(x.id[:0]); err != nil {
				return err
			}
			if *gmt, err = parseGMT(x.id); err != nil {
				return err
			}
		case xmlscan.EndElement:
			return nil
		}
	}
}

// parseGMT reads the text of the header's <gmt> as Parse does.
func parseGMT(text []byte) (time.Time, error) {
	ts, err := time.Parse(gmtLayout, string(bytes.TrimSpace(text)))
	if err != nil {
		return time.Time{}, fmt.Errorf("report: bad gmt %q: %w", text, err)
	}
	return ts, nil
}

// footerCompleted reads the footer as parseFooter does — <completed> and
// <errorMessage> must hold text only — and returns the completed flag.
func (x *extractor) footerCompleted() (completed bool, err error) {
	for {
		tok, err := x.cur.Next()
		if err != nil {
			return false, err
		}
		switch tok.Kind {
		case xmlscan.StartElement:
			switch string(tok.Name) {
			case "completed":
				if x.id, err = x.cur.Text(x.id[:0]); err != nil {
					return false, err
				}
				completed = string(bytes.TrimSpace(x.id)) == "true"
			case "errorMessage":
				if x.id, err = x.cur.Text(x.id[:0]); err != nil {
					return false, err
				}
			default:
				if err := x.cur.Skip(); err != nil {
					return false, err
				}
			}
		case xmlscan.EndElement:
			return completed, nil
		}
	}
}

// body walks the body's root element (the body may be empty). Returns
// errScanDone when every state resolved before the body ended. With abort
// set, the walk additionally bails out mid-tree the moment every state is
// settled — which means a multi-rooted body (that Parse would reject) can
// still yield values when everything settles inside the first root.
func (x *extractor) body() error {
	if allResolved(x.states) {
		return errScanDone
	}
	sawRoot := false
	for {
		tok, err := x.cur.Next()
		if err != nil {
			return truncated(err)
		}
		switch tok.Kind {
		case xmlscan.StartElement:
			if sawRoot {
				// Parse rejects multi-rooted bodies; so do we, so the
				// archive path skips exactly the documents Parse skips.
				return errMultiRoot
			}
			sawRoot = true
			if err := x.element(tok.Name, 0); err != nil {
				return err
			}
			if allResolved(x.states) {
				return errScanDone
			}
		case xmlscan.EndElement:
			return nil // </body>
		}
	}
}

func allResolved(states []pathState) bool {
	for i := range states {
		if !states[i].resolved() {
			return false
		}
	}
	return true
}

// settled reports whether every state is finished with the document:
// dead, or found with its value already parsed. Unlike allResolved —
// which is only safe once the body root has closed — settled can be
// consulted mid-tree: a found state whose target element is still open
// has not parsed its value yet and keeps the scan alive.
func settled(states []pathState) bool {
	for i := range states {
		if s := &states[i]; !s.dead && !(s.found && s.ok) {
			return false
		}
	}
	return true
}

// element processes one body element whose start tag has already been
// consumed, advancing every path state and descending only where a state
// can still match.
func (x *extractor) element(tag []byte, depth int) error {
	mark := len(x.text)
	// The element's identifier arrives as a leading <ID> child (Figure 2),
	// so matching is deferred until the first other child (or the end tag)
	// reveals whether the element carries one. As in parseNode, an <ID>
	// that follows a non-empty one is an ordinary child.
	var id []byte
	decided, isBranch := false, false
	for {
		tok, err := x.cur.Next()
		if err != nil {
			return truncated(err)
		}
		switch tok.Kind {
		case xmlscan.CharData:
			x.text = tok.AppendText(x.text)
		case xmlscan.StartElement:
			if !decided {
				if len(id) == 0 && string(tok.Name) == "ID" {
					if x.id, err = x.cur.Text(x.id[:0]); err != nil {
						return err
					}
					id = bytes.TrimSpace(x.id)
					continue
				}
				decideMatches(tag, id, depth, x.states)
				decided = true
			}
			isBranch = true
			// Descend only while some state can match at depth+1 (its
			// committed chain runs through this element).
			if !descendantInterest(depth, x.states) {
				if err := x.cur.Skip(); err != nil {
					return truncated(err)
				}
				continue
			}
			if err := x.element(tok.Name, depth+1); err != nil {
				return err
			}
			// Once every value is settled, nothing later in the document
			// can change it (Find commits to first matches): abandon the
			// walk with elements still open and let the caller jump to
			// the footer.
			if x.abort && settled(x.states) {
				return errScanDone
			}
		case xmlscan.EndElement:
			if !decided {
				decideMatches(tag, id, depth, x.states)
			}
			finalizeElement(depth, x.states, x.text[mark:], isBranch)
			x.text = x.text[:mark]
			return nil
		}
	}
}

// decideMatches advances every alive state whose next component is
// eligible at this element.
func decideMatches(tag, id []byte, depth int, states []pathState) {
	for i := range states {
		s := &states[i]
		if s.resolved() {
			continue
		}
		if depth == 0 {
			// Find tries the body root itself first, then treats it as a
			// container whose children may match the root component.
			if compMatches(s.comps[0], tag, id) {
				s.anchor, s.next = 0, 1
			} else {
				s.anchor, s.next = 1, 0
				continue
			}
		} else {
			if s.anchor+s.next != depth || !compMatches(s.comps[s.next], tag, id) {
				continue
			}
			s.next++
		}
		if s.next == len(s.comps) {
			s.found = true // target element: value parsed at finalize
		}
	}
}

// descendantInterest reports whether any state can still match a child at
// depth+1 of the current element.
func descendantInterest(depth int, states []pathState) bool {
	for i := range states {
		s := &states[i]
		if s.resolved() {
			// A found state whose target element is this one still needs
			// the element's own character data, which the walk collects —
			// children carry nothing for it.
			continue
		}
		if s.anchor+s.next == depth+1 {
			return true
		}
	}
	return false
}

// finalizeElement closes the element at depth: targets committed here
// parse their value; states whose chain tip is this element die (Find
// never backtracks to a later sibling).
func finalizeElement(depth int, states []pathState, text []byte, isBranch bool) {
	for i := range states {
		s := &states[i]
		if s.dead {
			continue
		}
		if s.found {
			if s.anchor+s.next-1 == depth && !s.ok {
				// This element is the target. Branch targets have no
				// character data, exactly as Node.Text is empty for
				// branches, so Float fails on them the same way.
				if !isBranch {
					if v, err := strconv.ParseFloat(string(bytes.TrimSpace(text)), 64); err == nil {
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

func compMatches(c pathComp, tag, id []byte) bool {
	return string(tag) == c.tag && (c.id == "" || string(id) == c.id)
}
