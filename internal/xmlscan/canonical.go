package xmlscan

import (
	"bytes"
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

// nameClass marks the ASCII bytes encoding/xml accepts in a name: 1 for a
// byte that may start one, 2 for one that may only continue it. The colon
// is left out (a prefixed name is re-declared by the encoder) and so is
// everything above ASCII (rare in report schemas; the tokenising path
// handles it).
var nameClass = func() (t [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		t[b], t[b-'a'+'A'] = 1, 1
	}
	t['_'] = 1
	for b := '0'; b <= '9'; b++ {
		t[b] = 2
	}
	t['-'], t['.'] = 2, 2
	return t
}()

var xmlnsName = []byte("xmlns")

// Canonical reports whether doc is a fixed point of decoding with
// encoding/xml and re-encoding the tokens with xml.Encoder — the round
// trip the depot's tokenising insert performs — and returns the bytes that
// round trip would produce: doc without its leading whitespace.
//
// The accepted set is what the encoder itself writes. Leading whitespace
// only before the first tag; tags exactly <name( attr="value")*> and
// </name>, names ASCII and un-prefixed, no xmlns attribute, every close
// tag matching the innermost open element and none left open; character
// data and attribute values free of anything the encoder would escape
// differently — its own eight references are the only ones allowed
// (&#34; &#39; &amp; &lt; &gt; &#x9; &#xD;, and &#xA; in attribute values,
// where a raw newline is not), no raw " ' > tab or CR, valid UTF-8 within
// the XML character range. Self-closed tags, CDATA, comments, processing
// instructions and directives all decode to something the encoder spells
// differently, so a document holding any is not canonical. One pass, no
// allocation for documents nested at most 16 deep.
func Canonical(doc []byte) (payload []byte, ok bool) {
	i := 0
	for i < len(doc) && isSpace(doc[i]) {
		i++
	}
	if i == len(doc) || doc[i] != '<' {
		return nil, false
	}
	start := i
	var buf [16][]byte
	open := buf[:0] // names of the open elements, innermost last
	for i < len(doc) {
		if doc[i] != '<' {
			if i = canonicalChars(doc, i, false); i < 0 {
				return nil, false
			}
			continue
		}
		i++
		if i < len(doc) && doc[i] == '/' {
			top := len(open) - 1
			if top < 0 || !bytes.HasPrefix(doc[i+1:], open[top]) {
				return nil, false
			}
			i += 1 + len(open[top])
			if i >= len(doc) || doc[i] != '>' {
				return nil, false
			}
			open = open[:top]
			i++
			continue
		}
		end := canonicalName(doc, i)
		if end < 0 {
			return nil, false
		}
		open = append(open, doc[i:end])
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
			end := canonicalName(doc, i+1)
			if end < 0 || bytes.Equal(doc[i+1:end], xmlnsName) ||
				end+1 >= len(doc) || doc[end] != '=' || doc[end+1] != '"' {
				return nil, false
			}
			if i = canonicalChars(doc, end+2, true); i < 0 {
				return nil, false
			}
		}
	}
	return doc[start:], len(open) == 0
}

// canonicalName returns the end of the name starting at i, or -1 when no
// acceptable name starts there.
func canonicalName(doc []byte, i int) int {
	if i >= len(doc) || nameClass[doc[i]] != 1 {
		return -1
	}
	for i++; i < len(doc) && nameClass[doc[i]] != 0; i++ {
	}
	return i
}

// canonicalChars scans character data (to the next '<' or the end of doc)
// or, with attr set, an attribute value (to its closing quote, which must
// exist). It returns the offset of that terminator, or -1 when the run
// holds anything the round trip would change or refuse.
func canonicalChars(doc []byte, i int, attr bool) int {
	for i < len(doc) {
		switch charClass[doc[i]] {
		case cPlain:
			i++
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
	if attr {
		return -1
	}
	return i
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
