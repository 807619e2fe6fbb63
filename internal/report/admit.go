package report

import (
	"bytes"
	"fmt"
	"io"

	"inca/internal/xmlscan"
)

// Admission is the depot's one pass over a report it stores. The cache
// holds the report's canonical form (xmlscan.Canonical, written by
// xmlscan.AppendCanonical) and the archive reads the header's gmt and the
// policies' leaves out of it. Admit does both in the canonical scan: the
// scanner hands its tokens to an admitter, which advances the path states
// (decideMatches, descendantInterest, finalizeElement) a token at a time
// and keeps the order quirks the archive has always had. Once the
// extraction is settled the admitter asks for no more tokens and the scan
// only checks the rest.

// Admit returns the bytes the depot stores for data and the extraction of
// paths from them. A canonical report is its own payload (canonical is
// true and payload aliases data) and is read once. Any other is written in
// canonical form into a new slice, and the extraction reads what was
// written. err says data is not well-formed XML:
// there is nothing to store or extract. Otherwise exErr is the
// extraction's: the report can be stored, not archived. ex's slices are
// e's own, valid until its next scan.
func (e *Extractor) Admit(data []byte, paths []Path) (payload []byte, canonical bool, ex Extraction, exErr, err error) {
	if payload, canonical = xmlscan.CanonicalVisit(data, e.admitter(paths)); !canonical {
		if payload, err = xmlscan.AppendCanonical(nil, data); err != nil {
			return nil, false, Extraction{}, nil, err
		}
		xmlscan.VisitWritten(payload, e.admitter(paths))
	}
	a := &e.a
	if a.mode != admitted {
		// The root's end tag settles every scan of a well-formed
		// document; this only keeps a scan that ran off the end from
		// passing for a settled one.
		a.fail(truncated(io.EOF))
	}
	return payload, canonical, a.ex, a.err, nil
}

// admitter readies e's admitter for a scan.
func (e *Extractor) admitter(paths []Path) *admitter {
	ex, needFooter := e.reset(paths)
	a := &e.a
	*a = admitter{x: &e.x, paths: paths, ex: ex, needFooter: needFooter, frames: a.frames[:0]}
	return a
}

// admitMode is where in the report the admitter stands.
type admitMode uint8

const (
	inProlog  admitMode = iota // before the root element
	inRoot                     // the root's children: the sections
	inHeader                   // the header's children
	inFooter                   // the footer's children
	inText                     // an element read whole into x.id
	inBody                     // the body's top level
	inElement                  // a body element some path may run through
	inSkip                     // a subtree nothing asks about
	admitted                   // settled: ex and err hold the outcome
)

// textUse says what an element read whole is for.
type textUse uint8

const (
	useGMT textUse = iota
	useCompleted
	useErrorMessage
	useID
)

// admitFrame is one open body element being walked (element's locals).
type admitFrame struct {
	tag             []byte
	mark            int // len(x.text) when the element opened
	decided, branch bool
}

// admitter is the extraction's walk, as an xmlscan.Visitor.
type admitter struct {
	x          *extractor
	paths      []Path
	ex         Extraction
	err        error
	needFooter bool

	mode   admitMode
	textTo admitMode // where an element read whole returns
	skipTo admitMode // where a skipped subtree returns
	use    textUse
	skip   int // elements of the skipped subtree still open

	sawHeader, sawFooter, sawRoot bool
	completed                     bool   // the open footer's flag so far
	id                            []byte // the innermost element's <ID>, before it is decided
	frames                        []admitFrame
}

// Visit implements xmlscan.Visitor.
func (a *admitter) Visit(t xmlscan.Token) bool {
	switch t.Kind {
	case xmlscan.StartElement:
		a.start(t.Name)
	case xmlscan.EndElement:
		a.end(t.Name)
	case xmlscan.CharData:
		switch a.mode {
		case inText:
			a.x.id = t.AppendText(a.x.id)
		case inElement:
			a.x.text = t.AppendText(a.x.text)
		}
	}
	return a.mode != admitted
}

func (a *admitter) start(name []byte) {
	switch a.mode {
	case inProlog:
		if string(name) != "incaReport" {
			a.fail(fmt.Errorf("report: root element %q, want incaReport", name))
			return
		}
		a.mode = inRoot
	case inRoot:
		switch string(name) {
		case "header":
			a.mode = inHeader
		case "body":
			a.body()
		case "footer":
			a.mode, a.completed = inFooter, false
		default:
			a.skipFrom(inRoot)
		}
	case inHeader:
		if string(name) == "gmt" {
			a.readText(useGMT, inHeader)
		} else {
			a.skipFrom(inHeader)
		}
	case inFooter:
		switch string(name) {
		case "completed":
			a.readText(useCompleted, inFooter)
		case "errorMessage":
			a.readText(useErrorMessage, inFooter)
		default:
			a.skipFrom(inFooter)
		}
	case inText:
		a.fail(fmt.Errorf("xmlscan: unexpected element <%s> in text content", name))
	case inSkip:
		a.skip++
	case inBody:
		if a.sawRoot {
			a.fail(errMultiRoot)
			return
		}
		a.sawRoot = true
		a.push(name)
	case inElement:
		depth := len(a.frames) - 1
		f := &a.frames[depth]
		if !f.decided {
			if len(a.id) == 0 && string(name) == "ID" {
				a.readText(useID, inElement)
				return
			}
			decideMatches(f.tag, a.id, depth, a.x.states)
			f.decided = true
		}
		f.branch = true
		if descendantInterest(depth, a.x.states) {
			a.push(name)
		} else {
			a.skipFrom(inElement)
		}
	}
}

func (a *admitter) end(name []byte) {
	switch a.mode {
	case inRoot:
		if a.needFooter && !a.sawFooter {
			a.fail(errMissingFooter)
		} else {
			a.finish()
		}
	case inHeader:
		a.sawHeader, a.mode = true, inRoot
	case inFooter:
		a.ex.Completed, a.sawFooter = a.completed, true
		if a.sawHeader {
			a.finish()
		} else {
			a.mode = inRoot
		}
	case inText:
		a.mode = a.textTo
		switch a.use {
		case useGMT:
			gmt, err := parseGMT(a.x.id)
			if err != nil {
				a.fail(err)
				return
			}
			a.ex.GMT = gmt
		case useCompleted:
			a.completed = string(bytes.TrimSpace(a.x.id)) == "true"
		case useID:
			a.id = bytes.TrimSpace(a.x.id)
		}
	case inSkip:
		if a.skip--; a.skip == 0 {
			a.mode = a.skipTo
		}
	case inBody:
		a.bodyDone(false)
	case inElement:
		depth := len(a.frames) - 1
		f := &a.frames[depth]
		if !f.decided {
			decideMatches(f.tag, a.id, depth, a.x.states)
		}
		finalizeElement(depth, a.x.states, a.x.text[f.mark:], f.branch)
		a.x.text = a.x.text[:f.mark]
		a.frames = a.frames[:depth]
		// As element and body do on the way back up: a settled body
		// root ends the body, and so does a settled state mid-tree.
		if depth == 0 {
			a.mode = inBody
			if allResolved(a.x.states) {
				a.bodyDone(true)
			}
		} else if settled(a.x.states) {
			a.bodyDone(true)
		}
	}
}

// body enters a <body> section.
func (a *admitter) body() {
	if allResolved(a.x.states) {
		a.bodyDone(true)
		return
	}
	a.mode, a.sawRoot = inBody, false
}

// bodyDone continues after the body returned: early (every state settled)
// or at its end tag.
func (a *admitter) bodyDone(early bool) {
	switch {
	case !a.needFooter:
		a.finish()
	case !early:
		a.mode = inRoot
	default:
		// Skip to the body's own end tag, past the elements still open
		// in it (none, when its root has closed), and read the sections
		// after it.
		a.mode, a.skipTo, a.skip = inSkip, inRoot, len(a.frames)+1
		a.frames = a.frames[:0]
	}
}

func (a *admitter) push(tag []byte) {
	a.frames = append(a.frames, admitFrame{tag: tag, mark: len(a.x.text)})
	a.mode, a.id = inElement, nil
}

func (a *admitter) skipFrom(m admitMode) {
	a.mode, a.skipTo, a.skip = inSkip, m, 1
}

func (a *admitter) readText(use textUse, m admitMode) {
	a.mode, a.textTo, a.use = inText, m, use
	a.x.id = a.x.id[:0]
}

func (a *admitter) finish() {
	if !a.sawHeader {
		a.fail(errMissingHeader)
		return
	}
	a.x.results(&a.ex, a.paths)
	a.mode = admitted
}

func (a *admitter) fail(err error) {
	a.err, a.mode = err, admitted
}
