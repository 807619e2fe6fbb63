package xmlscan

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"io"
	"unicode/utf8"
)

// Byte classes for character data and attribute values. Everything the
// encoder would rewrite is cBad: it escapes " ' < > & \t \r wherever they
// occur, drops nothing and adds nothing else, so a run of cPlain bytes is
// written back as it was read.
const (
	cPlain = iota
	cBad   // the encoder escapes it, or the decoder refuses it
	cLT    // '<': ends character data, illegal in an attribute value
	cQuote // '"': ends an attribute value, escaped in character data
	cAmp   // '&': must open one of the encoder's own references
	cNL    // '\n': raw in character data, &#xA; in an attribute value
	cMulti // first byte of a multi-byte UTF-8 sequence
)

var charClass = func() (t [256]uint8) {
	for b := 0; b < 256; b++ {
		if b < 0x20 || b >= 0x80 {
			t[b] = cBad // control bytes; stray continuation and invalid lead bytes
		}
	}
	for b := 0xC2; b <= 0xF4; b++ {
		t[b] = cMulti
	}
	t['\''], t['>'] = cBad, cBad
	t['<'], t['"'], t['&'], t['\n'] = cLT, cQuote, cAmp, cNL
	return t
}()

// nameClass marks the ASCII bytes encoding/xml accepts in a name, other
// than the colon: nameStart for a byte that may start one, nameMore for one
// that may only continue it. The colon may stand anywhere in a name, but
// only once (encoding/xml refuses a second); canonicalName handles it
// where the table stops. Everything above ASCII is left out: the decoder's
// Unicode name tables are not reproduced here, so a document with such a
// name is written by AppendCanonical instead.
const (
	nameStart = 1 + iota
	nameMore
)

var nameClass = func() (t [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		t[b], t[b-'a'+'A'] = nameStart, nameStart
	}
	t['_'] = nameStart
	for b := '0'; b <= '9'; b++ {
		t[b] = nameMore
	}
	t['-'], t['.'] = nameMore, nameMore
	return t
}()

// A TokenKind classifies a Token.
type TokenKind uint8

const (
	StartElement TokenKind = iota
	EndElement
	CharData
)

// Token is one start tag, end tag or run of character data of a canonical
// document, as CanonicalVisit hands it to a Visitor.
type Token struct {
	Kind TokenKind
	Name []byte // StartElement, EndElement: the local name

	raw []byte // CharData as written
}

// AppendText appends a CharData token's text to dst, decoded as
// encoding/xml delivers it: references resolved.
func (t Token) AppendText(dst []byte) []byte {
	return appendText(dst, t.raw, true)
}

// A Visitor is shown the tokens CanonicalVisit reads.
type Visitor interface {
	// Visit receives the next token and reports whether it wants the
	// rest; once it returns false it is not called again.
	Visit(Token) bool
}

// Canonical reports whether doc is in the depot's canonical form — a fixed
// point of AppendCanonical, which writes every payload the depot stores —
// and returns that form: doc without its leading whitespace.
//
// The accepted set is what AppendCanonical writes. Leading whitespace only
// before the first tag; tags exactly <name( attr="value")*> and </name>,
// names ASCII with at most one colon, every close tag matching the
// innermost open element and none left open; character data and attribute
// values free of anything the writer would escape differently — its own
// eight references are the only ones allowed (&#34; &#39; &amp; &lt; &gt;
// &#x9; &#xD;, and &#xA; in attribute values, where a raw newline is not),
// no raw " ' > tab or CR, valid UTF-8 within the XML character range.
// Self-closed tags, CDATA, comments, processing instructions and
// directives are all written differently or not at all, so a document
// holding any is not canonical. One pass, no allocation for documents
// nested at most 16 deep.
func Canonical(doc []byte) (payload []byte, ok bool) {
	return canonicalVisit(doc, nil, false)
}

// CanonicalVisit is Canonical that also hands v, as it goes, the start
// tags, end tags and each run of character data after the first tag of
// the part of doc scanned so far (attributes are not reported). When doc
// turns out not to be canonical, v has seen a prefix of it and the scan
// stops. A nil v is Canonical.
func CanonicalVisit(doc []byte, v Visitor) (payload []byte, ok bool) {
	return canonicalVisit(doc, v, false)
}

// openName is an element canonicalVisit has open: its name as written and
// the offset in it of the colon ending a prefix, or -1.
type openName struct {
	name  []byte
	colon int
}

// token is the StartElement or EndElement token of the element.
func (o openName) token(kind TokenKind) Token {
	if o.colon <= 0 || o.colon == len(o.name)-1 {
		return Token{Kind: kind, Name: o.name}
	}
	return Token{Kind: kind, Name: o.name[o.colon+1:]}
}

// canonicalVisit is CanonicalVisit; with written set it also takes names
// above ASCII, as a document AppendCanonical wrote may hold.
func canonicalVisit(doc []byte, v Visitor, written bool) (payload []byte, ok bool) {
	i := 0
	for i < len(doc) && isSpace(doc[i]) {
		i++
	}
	if i == len(doc) || doc[i] != '<' {
		return nil, false
	}
	start := i
	var buf [16]openName
	open := buf[:0] // the open elements, innermost last
	for i < len(doc) {
		if doc[i] != '<' {
			end := canonicalChars(doc, i, false)
			if end < 0 {
				return nil, false
			}
			if v != nil && !v.Visit(Token{Kind: CharData, raw: doc[i:end]}) {
				v = nil
			}
			i = end
			continue
		}
		i++
		if i < len(doc) && doc[i] == '/' {
			top := len(open) - 1
			if top < 0 || !bytes.HasPrefix(doc[i+1:], open[top].name) {
				return nil, false
			}
			i += 1 + len(open[top].name)
			if i >= len(doc) || doc[i] != '>' {
				return nil, false
			}
			if v != nil && !v.Visit(open[top].token(EndElement)) {
				v = nil
			}
			open = open[:top]
			i++
			continue
		}
		end, colon := canonicalName(doc, i, written)
		if end < 0 {
			return nil, false
		}
		open = append(open, openName{doc[i:end], colon})
		for i = end; ; i++ {
			if i >= len(doc) {
				return nil, false
			}
			if doc[i] == '>' {
				i++
				break
			}
			if doc[i] != ' ' {
				return nil, false
			}
			end, _ := canonicalName(doc, i+1, written)
			if end < 0 || end+1 >= len(doc) || doc[end] != '=' || doc[end+1] != '"' {
				return nil, false
			}
			if i = canonicalChars(doc, end+2, true); i < 0 {
				return nil, false
			}
		}
		if v != nil && !v.Visit(open[len(open)-1].token(StartElement)) {
			v = nil
		}
	}
	return doc[start:], len(open) == 0
}

// canonicalName returns the end of the name starting at i, or -1 when no
// acceptable name starts there, and where in the name its colon stands,
// or -1. With written set, bytes above ASCII are name bytes too.
func canonicalName(doc []byte, i int, written bool) (end, colon int) {
	start := i
	colon = -1
	for ; i < len(doc); i++ {
		if nameClass[doc[i]] != 0 {
			continue
		}
		if doc[i] == ':' && colon < 0 {
			colon = i - start
		} else if !written || doc[i] < 0x80 {
			break
		}
	}
	if i == start || nameClass[doc[start]] == nameMore || i < len(doc) && doc[i] == ':' {
		return -1, -1
	}
	return i, colon
}

// canonicalChars scans character data (to the next '<' or the end of doc)
// or, with attr set, an attribute value (to its closing quote, which must
// exist). It returns the offset of that terminator, or -1 when the run
// holds anything the round trip would change or refuse.
func canonicalChars(doc []byte, i int, attr bool) int {
	for {
		for i+8 <= len(doc) && plainWord(binary.LittleEndian.Uint64(doc[i:])) {
			i += 8
		}
		for i < len(doc) && charClass[doc[i]] == cPlain {
			i++
		}
		if i == len(doc) {
			if attr {
				return -1
			}
			return i
		}
		switch charClass[doc[i]] {
		case cLT:
			if attr {
				return -1
			}
			return i
		case cQuote:
			if !attr {
				return -1
			}
			return i
		case cNL:
			if attr {
				return -1
			}
			i++
		case cAmp:
			n := canonicalRef(doc[i+1:], attr)
			if n == 0 {
				return -1
			}
			i += 1 + n
		case cMulti:
			r, size := utf8.DecodeRune(doc[i:])
			// DecodeRune has already refused surrogates and overlong
			// forms; U+FFFE and U+FFFF are the rest of what XML excludes.
			if size == 1 || r == 0xFFFE || r == 0xFFFF {
				return -1
			}
			i += size
		default:
			return -1
		}
	}
}

// plainWord reports whether the eight bytes packed little-endian in w are
// all cPlain: 0x20–0x7F and none of < " & ' >. Subtracting 0x20 from every
// byte sets some byte's top bit exactly when a byte is below 0x20, and a
// byte at or above 0x80 has its own top bit set. With every top bit clear,
// x-ones sets one exactly when some byte of x is zero, so a zero byte of
// w^(c*ones) is a byte equal to c. '&' (0x26) and the apostrophe (0x27)
// differ only in bit 0, '<' (0x3C) and '>' (0x3E) only in bit 1: setting
// that bit first tests each pair at once.
func plainWord(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	bad := (w - 0x20*ones) | w |
		(((w | ones) ^ 0x27*ones) - ones) |
		(((w | 2*ones) ^ 0x3E*ones) - ones) |
		((w ^ 0x22*ones) - ones)
	return bad&highs == 0
}

// canonicalRef returns the length of the encoder-written reference that s
// (the bytes after an '&') starts with, or 0. &#xA; is what the encoder
// writes for a newline in an attribute value; in character data it writes
// the newline raw.
func canonicalRef(s []byte, attr bool) int {
	for _, ref := range [...]string{"amp;", "lt;", "gt;", "#34;", "#39;", "#x9;", "#xD;"} {
		if len(s) >= len(ref) && string(s[:len(ref)]) == ref {
			return len(ref)
		}
	}
	if attr && len(s) >= 4 && string(s[:4]) == "#xA;" {
		return 4
	}
	return 0
}

var errNoElement = errors.New("xmlscan: no element")

// AppendCanonical appends doc's canonical form to dst: the form Canonical
// accepts, so that a document Canonical accepts is written as it stands.
// encoding/xml's decoder, holding each end tag to the innermost open
// element by name, judges whether doc is well-formed, with its own error
// texts; what it accepts is written token by token:
//
//   - element and attribute names as they appear, prefixes and xmlns
//     declarations included, in tags of the form <name attr="value">
//     and </name> (a self-closed tag is written open and closed);
//   - character data and attribute values escaped as xml.Encoder escapes
//     them, CDATA sections included;
//   - nothing else: comments, processing instructions (the XML
//     declaration among them), directives, and character data before the
//     first element are dropped. A document with no element is refused.
func AppendCanonical(dst, doc []byte) ([]byte, error) {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	start := len(dst)
	var open []xml.Name
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			if len(open) > 0 {
				return dst[:start], syntaxError(dec, "unexpected EOF")
			}
			break
		}
		if err != nil {
			return dst[:start], err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			open = append(open, t.Name)
			dst = appendName(append(dst, '<'), t.Name)
			for _, a := range t.Attr {
				dst = appendName(append(dst, ' '), a.Name)
				dst = append(appendEscaped(append(dst, '=', '"'), []byte(a.Value), true), '"')
			}
			dst = append(dst, '>')
		case xml.EndElement:
			// The checks and messages of the decoder's own Token.
			if len(open) == 0 {
				return dst[:start], syntaxError(dec, "unexpected end element </"+t.Name.Local+">")
			}
			top := open[len(open)-1]
			switch {
			case top.Local != t.Name.Local:
				return dst[:start], syntaxError(dec, "element <"+top.Local+"> closed by </"+t.Name.Local+">")
			case top.Space != t.Name.Space:
				ns := t.Name.Space
				if ns == "" {
					ns = `""`
				}
				return dst[:start], syntaxError(dec, "element <"+top.Local+"> in space "+top.Space+
					" closed by </"+t.Name.Local+"> in space "+ns)
			}
			open = open[:len(open)-1]
			dst = append(appendName(append(dst, '<', '/'), t.Name), '>')
		case xml.CharData:
			if len(dst) > start {
				dst = appendEscaped(dst, t, false)
			}
		}
	}
	if len(dst) == start {
		return dst, errNoElement
	}
	return dst, nil
}

// VisitWritten shows v the tokens of doc, a document AppendCanonical wrote,
// as CanonicalVisit would show them: it differs from CanonicalVisit only
// in taking any name the decoder took, not just ASCII ones.
func VisitWritten(doc []byte, v Visitor) {
	canonicalVisit(doc, v, true)
}

func syntaxError(dec *xml.Decoder, msg string) error {
	line, _ := dec.InputPos()
	return &xml.SyntaxError{Msg: msg, Line: line}
}

// appendName appends a name as it was written: encoding/xml splits
// prefix:local at the only colon when both sides are non-empty.
func appendName(dst []byte, n xml.Name) []byte {
	if n.Space != "" {
		dst = append(append(dst, n.Space...), ':')
	}
	return append(dst, n.Local...)
}

// appendEscaped appends s escaped as xml.Encoder escapes character data
// or, with attr set, an attribute value (where a newline is escaped too).
// The decoder has refused every rune outside the XML character range, the
// only other runes the encoder rewrites.
func appendEscaped(dst, s []byte, attr bool) []byte {
	last := 0
	for i, b := range s {
		var esc string
		switch b {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\r':
			esc = "&#xD;"
		case '\n':
			if !attr {
				continue
			}
			esc = "&#xA;"
		default:
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// ReplaceIllegal returns s with every character XML excludes written as
// U+FFFD, as xml.EscapeText writes it: a C0 control other than tab, LF and
// CR, each byte that is not part of valid UTF-8, U+FFFE and U+FFFF, one
// U+FFFD per byte or rune (strings.ToValidUTF8 would fold a run into one).
// When s holds none it is returned as it is and replaced is false.
func ReplaceIllegal[T ~string | ~[]byte](s T) (out T, replaced bool) {
	var dst []byte
	last := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= 0x20 && b < utf8.RuneSelf || b == '\t' || b == '\n' || b == '\r' {
			i++
			continue
		}
		width := 1
		if b >= utf8.RuneSelf {
			var r rune
			if r, width = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))])); width > 1 && r != 0xFFFE && r != 0xFFFF {
				i += width
				continue
			}
		}
		dst = append(append(dst, s[last:i]...), "\uFFFD"...)
		i += width
		last = i
	}
	if dst == nil {
		return s, false
	}
	return T(append(dst, s[last:]...)), true
}
