// Package xmlscan is the byte-level scanner for the canonical XML the depot
// renders: cache documents, /reports bodies and the report payloads inside
// them.
//
// Every payload is in one canonical form, which AppendCanonical writes and
// Canonical recognises, and every branch tag is what encoding/xml writes:
// no inter-element whitespace, '<' escaped everywhere outside markup, so
// every '<' opens a tag. That lets readers walk a document with
// bytes.IndexByte instead of a general-purpose tokenizer — the streaming
// discipline of the paper's SAX cache (§5.2.1) minus the parser's
// per-token cost. The depot admits reports, splices and collects with it;
// the archive extracts values from the tokens the admission scan hands it
// (CanonicalVisit); the federation tier splits shard documents with it.
//
// The scanner checks structure, not content: tags must terminate, close
// tags must match their open tag by name, and comments, PIs, CDATA and
// directives are skipped to their terminators rather than counted as
// elements. Names, entity references and character data are not
// validated. On any document encoding/xml accepts, the scanner sees the
// same elements at the same offsets.
package xmlscan

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// Kind classifies one piece of markup.
type Kind uint8

const (
	Open  Kind = iota // <name attrs>
	Close             // </name>
	Empty             // <name attrs/>: an element with no content and no close tag
	CDATA             // <![CDATA[...]]>: character data
	Misc              // comment, processing instruction or directive: not content
)

// Tag is one piece of markup found by Next.
type Tag struct {
	Kind       Kind
	Start, End int    // data[Start:End] covers the markup, '<' through '>'
	Name       []byte // element name as written, any namespace prefix included
	Attrs      []byte // raw bytes after the name inside an Open or Empty tag
}

var (
	piEnd       = []byte("?>")
	commentOpen = []byte("!--")
	commentEnd  = []byte("-->")
	cdataOpen   = []byte("![CDATA[")
	cdataEnd    = []byte("]]>")
)

func isSpace(b byte) bool { return b == ' ' || b == '\n' || b == '\t' || b == '\r' }

// Next finds the next markup at or after pos; data[pos:t.Start] is the
// character data before it. ok is false when no '<' remains.
func Next(data []byte, pos int) (t Tag, ok bool, err error) {
	lt := bytes.IndexByte(data[pos:], '<')
	if lt < 0 {
		return Tag{}, false, nil
	}
	start := pos + lt
	if start+1 == len(data) {
		return Tag{}, false, unterminated(start)
	}
	switch data[start+1] {
	case '/':
		end := start + 2
		for end < len(data) && data[end] != '>' {
			end++
		}
		if end == len(data) {
			return Tag{}, false, unterminated(start)
		}
		end++
		name := data[start+2 : end-1]
		for len(name) > 0 && isSpace(name[len(name)-1]) {
			name = name[:len(name)-1]
		}
		return Tag{Kind: Close, Start: start, End: end, Name: name}, true, nil
	case '?':
		return delimited(data, start, start+2, piEnd, Misc)
	case '!':
		rest := data[start+1:]
		switch {
		case bytes.HasPrefix(rest, commentOpen):
			return delimited(data, start, start+1+len(commentOpen), commentEnd, Misc)
		case bytes.HasPrefix(rest, cdataOpen):
			return delimited(data, start, start+1+len(cdataOpen), cdataEnd, CDATA)
		case len(rest) > 1 && (rest[1] == '-' || rest[1] == '['):
			return Tag{}, false, fmt.Errorf("xmlscan: invalid <!%c sequence at %d", rest[1], start)
		}
		end := directiveEnd(data, start)
		if end < 0 {
			return Tag{}, false, unterminated(start)
		}
		return Tag{Kind: Misc, Start: start, End: end}, true, nil
	}
	// One pass over the tag: the name runs to the first space or '>', the
	// tag to the first '>' outside a quoted attribute value.
	nameEnd := start + 1
	for nameEnd < len(data) && data[nameEnd] != '>' && !isSpace(data[nameEnd]) {
		nameEnd++
	}
	end := tagEnd(data, nameEnd)
	if end < 0 {
		return Tag{}, false, unterminated(start)
	}
	t = Tag{Kind: Open, Start: start, End: end}
	inner := data[start+1 : end-1]
	if n := len(inner); n > 0 && inner[n-1] == '/' {
		t.Kind = Empty
		inner = inner[:n-1]
	}
	if n := nameEnd - start - 1; n < len(inner) {
		t.Name, t.Attrs = inner[:n], inner[n+1:]
	} else {
		t.Name = inner
	}
	return t, true, nil
}

func unterminated(at int) error {
	return fmt.Errorf("xmlscan: unterminated markup at %d", at)
}

// delimited is markup that runs to a fixed terminator, searched from body.
func delimited(data []byte, start, body int, term []byte, kind Kind) (Tag, bool, error) {
	if body > len(data) {
		return Tag{}, false, unterminated(start)
	}
	i := bytes.Index(data[body:], term)
	if i < 0 {
		return Tag{}, false, unterminated(start)
	}
	return Tag{Kind: kind, Start: start, End: body + i + len(term)}, true, nil
}

// tagEnd returns the offset just past the '>' that closes a start tag,
// searching from i, or -1. A '>' inside a quoted attribute value does not
// close the tag (canonical documents escape it, hand-written XML need
// not). Tags are short: a byte loop beats a vectorised search's call cost.
func tagEnd(data []byte, i int) int {
	for ; i < len(data); i++ {
		switch data[i] {
		case '>':
			return i + 1
		case '"', '\'':
			q := bytes.IndexByte(data[i+1:], data[i])
			if q < 0 {
				return -1
			}
			i += q + 1
		}
	}
	return -1
}

// directiveEnd returns the offset just past the '>' closing the <!...>
// directive at start, or -1. Quoted angle brackets do not nest, unquoted
// ones do, and a comment inside the directive hides whatever it holds —
// the rules encoding/xml applies.
func directiveEnd(data []byte, start int) int {
	var inquote byte
	depth := 0
	// The byte after "<!" belongs to the directive whatever it is.
	for i := start + 3; i < len(data); i++ {
		switch b := data[i]; {
		case inquote != 0:
			if b == inquote {
				inquote = 0
			}
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			if depth == 0 {
				return i + 1
			}
			depth--
		case b == '<':
			if !bytes.HasPrefix(data[i+1:], commentOpen) {
				depth++
				continue
			}
			body := i + 1 + len(commentOpen)
			end := bytes.Index(data[body:], commentEnd)
			if end < 0 {
				return -1
			}
			i = body + end + len(commentEnd) - 1
		}
	}
	return -1
}

// ScanTag finds the next element tag (Open, Close or Empty) at or after
// pos, skipping CDATA sections, comments, PIs and directives.
func ScanTag(data []byte, pos int) (Tag, bool, error) {
	for {
		t, ok, err := Next(data, pos)
		if err != nil || !ok || (t.Kind != CDATA && t.Kind != Misc) {
			return t, ok, err
		}
		pos = t.End
	}
}

// nameStop marks the bytes that end an open tag's name: '>' and the
// spaces isSpace accepts.
var nameStop = [256]bool{'>': true, ' ': true, '\n': true, '\t': true, '\r': true}

// textProbe is how many bytes of character data SkipSubtree checks inline
// for the next '<' before it pays for a vectorised search: the depot's
// documents put most tags straight after another or after a short value.
const textProbe = 16

// SkipSubtree returns the offset just past the element the start tag t
// (as Next or ScanTag returned it) opens. Every close tag on the way must
// match the open tag it closes; a document that ends first, or closes the
// wrong element, is an error.
//
// It is Next's loop with the two common tags resolved in place: an open
// tag is cut the way Next cuts it without building a Tag, and a close tag
// that is exactly </name> for the innermost open element pops it. Any
// other markup — a comment, PI, CDATA section or directive, a close tag
// with a different name or trailing space, an unterminated '<' — goes
// through Next, so the offsets and the error texts are Next's.
func SkipSubtree(data []byte, t Tag) (int, error) {
	if t.Kind == Empty {
		return t.End, nil
	}
	var buf [16][]byte // open elements, innermost last; report bodies nest a few levels
	stack := append(buf[:0], t.Name)
	pos := t.End
	for {
		start := -1
		for i, stop := pos, min(pos+textProbe, len(data)); i < stop; i++ {
			if data[i] == '<' {
				start = i
				break
			}
		}
		if start < 0 && pos+textProbe < len(data) {
			if lt := bytes.IndexByte(data[pos+textProbe:], '<'); lt >= 0 {
				start = pos + textProbe + lt
			}
		}
		if start < 0 {
			return 0, fmt.Errorf("xmlscan: <%s> at %d is never closed", t.Name, t.Start)
		}
		if start+1 < len(data) {
			switch data[start+1] {
			case '/':
				top := stack[len(stack)-1]
				if end := start + 2 + len(top); end < len(data) && data[end] == '>' && bytes.Equal(data[start+2:end], top) {
					if stack, pos = stack[:len(stack)-1], end+1; len(stack) == 0 {
						return pos, nil
					}
					continue
				}
			case '?', '!': // PIs, comments, CDATA and directives: Next
			default:
				nameEnd := start + 1
				for nameEnd < len(data) && !nameStop[data[nameEnd]] {
					nameEnd++
				}
				end := tagEnd(data, nameEnd)
				if end < 0 {
					return 0, unterminated(start)
				}
				if pos = end; data[end-2] != '/' { // <name/> opens nothing
					stack = append(stack, data[start+1:nameEnd])
				}
				continue
			}
		}
		n, _, err := Next(data, start)
		if err != nil {
			return 0, err
		}
		pos = n.End
		switch n.Kind {
		case Open:
			stack = append(stack, n.Name)
		case Close:
			top := len(stack) - 1
			if !bytes.Equal(stack[top], n.Name) {
				return 0, fmt.Errorf("xmlscan: <%s> closed by </%s> at %d", stack[top], n.Name, n.Start)
			}
			if stack = stack[:top]; top == 0 {
				return pos, nil
			}
		}
	}
}

// LocalName strips a namespace prefix the way encoding/xml does: a name
// with one colon and text on both sides of it is prefix:local.
func LocalName(name []byte) []byte {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return name
}

// AttrValue extracts and unescapes the attribute with the given local
// name from a tag's raw Attrs. Either quote character delimits a value
// and whitespace may surround '='; of duplicate attributes the last wins,
// as it does for a caller ranging over encoding/xml's attribute list.
func AttrValue(attrs []byte, name string) (string, bool) {
	var val []byte
	found := false
	for i := 0; ; {
		for i < len(attrs) && isSpace(attrs[i]) {
			i++
		}
		j := i
		for j < len(attrs) && attrs[j] != '=' && !isSpace(attrs[j]) {
			j++
		}
		key := attrs[i:j]
		for j < len(attrs) && isSpace(attrs[j]) {
			j++
		}
		if j >= len(attrs) || attrs[j] != '=' {
			break
		}
		for j++; j < len(attrs) && isSpace(attrs[j]); j++ {
		}
		if j >= len(attrs) || (attrs[j] != '"' && attrs[j] != '\'') {
			break
		}
		end := bytes.IndexByte(attrs[j+1:], attrs[j])
		if end < 0 {
			break
		}
		if string(LocalName(key)) == name {
			val, found = attrs[j+1:j+1+end], true
		}
		i = j + 1 + end + 1
	}
	if !found {
		return "", false
	}
	return Unescape(val), true
}

// Unescape resolves the entity references encoding/xml emits and folds a
// raw CR or CRLF to LF, as an XML parser reading the same bytes would.
// References it does not know are left as written.
func Unescape(s []byte) string {
	if bytes.IndexByte(s, '&') < 0 && bytes.IndexByte(s, '\r') < 0 {
		return string(s)
	}
	return string(appendText(nil, s, true))
}

// appendText appends s to dst with line ends folded and, when refs is set
// (character data and attribute values, not CDATA), references resolved.
func appendText(dst, s []byte, refs bool) []byte {
	if bytes.IndexByte(s, '\r') < 0 && (!refs || bytes.IndexByte(s, '&') < 0) {
		return append(dst, s...)
	}
	for i := 0; i < len(s); {
		if s[i] == '\r' {
			dst = append(dst, '\n')
			if i++; i < len(s) && s[i] == '\n' {
				i++
			}
			continue
		}
		if s[i] != '&' || !refs {
			dst = append(dst, s[i])
			i++
			continue
		}
		semi := bytes.IndexByte(s[i:], ';')
		if semi < 0 {
			dst = append(dst, s[i:]...)
			break
		}
		ent := string(s[i+1 : i+semi])
		switch {
		case ent == "lt":
			dst = append(dst, '<')
		case ent == "gt":
			dst = append(dst, '>')
		case ent == "amp":
			dst = append(dst, '&')
		case ent == "quot":
			dst = append(dst, '"')
		case ent == "apos":
			dst = append(dst, '\'')
		case len(ent) > 1 && ent[0] == '#':
			var code int64
			var err error
			if ent[1] == 'x' || ent[1] == 'X' {
				code, err = strconv.ParseInt(ent[2:], 16, 32)
			} else {
				code, err = strconv.ParseInt(ent[1:], 10, 32)
			}
			if err != nil {
				dst = append(dst, s[i:i+semi+1]...)
			} else {
				dst = utf8.AppendRune(dst, rune(code))
			}
		default:
			dst = append(dst, s[i:i+semi+1]...)
		}
		i += semi + 1
	}
	return dst
}
