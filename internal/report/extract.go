package report

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// Streaming value extraction: the depot's archive path needs a handful of
// numeric leaves (and the pass/fail footer flag) out of each matching
// report, not the whole document. Parse materializes every element of the
// open-schema body as a Node; for archival that work is thrown away
// immediately after a few Float lookups. The extraction instead rides on
// the depot's admission scan (Admit, admit.go): it follows only elements
// that can still lie on a requested path and stops asking for tokens as
// soon as every requested value is resolved, so archive-side work is
// proportional to the extracted paths, not to the report size.

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
// Admit and ExtractValues. The empty expression compiles to the success path.
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

// Extraction is the result of one extraction.
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

var (
	errMissingHeader = errors.New("report: missing header")
	errMissingFooter = errors.New("report: missing footer")
	errMultiRoot     = errors.New("report: body has multiple roots")
)

// extractor is one extraction's working state: the path states and the
// scratch the element walk decodes text into.
type extractor struct {
	states []pathState
	// text holds the character data of the open elements on the walk's
	// path, each element's run starting where its parent's stood when it
	// opened; id is the scratch for one element read whole: the <ID> of the
	// element being decided, the header's <gmt>, the footer's flags.
	text, id []byte
}

// ExtractValues reads the given compiled paths out of a serialized report,
// as Admit does. Header and footer handling mirrors Parse: a document
// without a header is rejected; the footer is required (and read) only
// when a success path is requested. On a document Parse takes for a report
// with its sections in order, the result is what Parse followed by Find
// and Float gives. A document that is not well-formed XML is an error.
func ExtractValues(data []byte, paths []Path) (Extraction, error) {
	_, _, ex, exErr, err := new(Extractor).Admit(data, paths)
	if err != nil {
		return Extraction{}, err
	}
	return ex, exErr
}

// Extractor runs Admit scans and keeps their scratch for the next one: the
// path states, the text buffers and the result slices. A depot archiving
// at ingest rate pools Extractors, so a steady stream of canonical reports
// allocates nothing. An Extractor is not safe for concurrent use.
type Extractor struct {
	x      extractor
	a      admitter
	values []float64
	found  []bool
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
	x.states, x.text = x.states[:0], x.text[:0]
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

// parseGMT reads the text of the header's <gmt> as Parse does.
func parseGMT(text []byte) (time.Time, error) {
	ts, err := time.Parse(gmtLayout, string(bytes.TrimSpace(text)))
	if err != nil {
		return time.Time{}, fmt.Errorf("report: bad gmt %q: %w", text, err)
	}
	return ts, nil
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
