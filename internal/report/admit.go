package report

import (
	"bytes"
	"fmt"
	"io"

	"inca/internal/xmlscan"
)

// Admission is the depot's one pass over a report it stores. The cache
// must hold the report to the encoder's own form (xmlscan.Canonical) and
// the archive must read the header's gmt and the policies' leaves out of
// it. Admit does both in the one canonical scan: the scanner hands its
// tokens to an admitter, which runs ExtractValues' walk on them — the same
// path states, advanced by decideMatches, descendantInterest and
// finalizeElement, and the same checks and order quirks, pushed a token at
// a time instead of pulled from a Cursor. Once the extraction is settled
// the admitter asks for no more tokens and the scan only checks the rest.

// Admit scans data once for the admission and the extraction. ok and
// payload are xmlscan.Canonical's verdict and payload. When ok, ex and err
// are what ExtractValues(data, paths) returns, and ex's slices are e's own,
// valid until its next scan. When data is not canonical nothing was
// extracted: a caller that still stores it tokenises it and then calls
// ExtractValues.
func (e *Extractor) Admit(data []byte, paths []Path) (payload []byte, ok bool, ex Extraction, err error) {
	ex, needFooter := e.reset(paths)
	a := &e.a
	*a = admitter{x: &e.x, data: data, paths: paths, ex: ex, needFooter: needFooter, section: inRoot, frames: a.frames[:0]}
	if payload, ok = xmlscan.CanonicalVisit(data, a); !ok {
		return nil, false, Extraction{}, nil
	}
	if a.mode != admitted {
		// Only the scan after a footer jump can run off the end: what
		// follows the last </body> held no footer.
		a.fail(truncated(io.EOF))
	}
	return payload, true, a.ex, a.err
}

// admitMode is where in the report the admitter stands: which loop of
// ExtractValues would be reading the next token.
type admitMode uint8

const (
	inProlog  admitMode = iota // before the root element
	inRoot                     // the root's children: the sections
	inTail                     // after the footer jump, nothing open
	toJump                     // walking to the end of the last </body>
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

// admitter is ExtractValues' walk as an xmlscan.Visitor.
type admitter struct {
	x          *extractor
	data       []byte
	paths      []Path
	ex         Extraction
	err        error
	needFooter bool

	mode    admitMode
	section admitMode // inRoot, or inTail once the footer jump is taken
	textTo  admitMode // where an element read whole returns
	skipTo  admitMode // where a skipped subtree returns
	use     textUse
	skip    int // elements of the skipped subtree still open

	sawHeader, sawFooter, sawRoot bool
	completed                     bool   // the open footer's flag so far
	id                            []byte // the innermost element's <ID>, before it is decided
	frames                        []admitFrame

	// The footer jump resumes after the last literal "</body>"; in a
	// canonical document each is an end tag, so counting them finds it.
	bodyEnds, lastBodyEnd int
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
	case inRoot, inTail:
		switch string(name) {
		case "header":
			a.mode = inHeader
		case "body":
			a.body()
		case "footer":
			a.mode, a.completed = inFooter, false
		default:
			a.skipFrom(a.mode)
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
	if string(name) == "body" {
		a.bodyEnds++
	}
	switch a.mode {
	case inRoot:
		if a.needFooter && !a.sawFooter {
			a.fail(errMissingFooter)
		} else {
			a.finish()
		}
	case inTail:
		// The Cursor resumed after the jump has nothing open to close.
		a.fail(truncated(fmt.Errorf("xmlscan: </%s> closes nothing", name)))
	case toJump:
		if a.bodyEnds == a.lastBodyEnd {
			a.mode = inTail
		}
	case inHeader:
		a.sawHeader, a.mode = true, a.section
	case inFooter:
		a.ex.Completed, a.sawFooter = a.completed, true
		if a.sawHeader {
			a.finish()
		} else {
			a.mode = a.section
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

// body enters a <body> section, as ExtractValues calls body.
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
		a.mode = a.section
	default:
		// Jump past the last "</body>" and read on there with nothing
		// open, as ExtractValues resets its Cursor.
		a.section, a.mode = inTail, toJump
		a.lastBodyEnd = bytes.Count(a.data, bodyCloseTag)
		if a.bodyEnds == a.lastBodyEnd {
			a.mode = inTail
		}
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
