package envelope

import (
	"bytes"
	"strconv"
	"sync"
	"unicode/utf8"

	"inca/internal/branch"
)

// This file is the pooled byte-level codec behind Encode/Decode. The
// encoder's escaper reproduces encoding/xml.EscapeText byte for byte (the
// cache depends on canonical documents), but appends into a preallocated
// slice instead of driving an io.Writer rune by rune. The decoder
// recognizes the exact layout Encode emits and unescapes with one scan
// through a sync.Pool scratch buffer; any other envelope shape falls back
// to the generic XML decoder, so foreign or hand-written envelopes keep
// working.

// escapes are the replacements xml.EscapeText writes; escClass maps a byte
// to the one it takes (0: the byte stands as it is). Only a byte that opens
// a multi-byte sequence, escMulti, needs a rune decoded to decide.
var escapes = [...]string{1: "&#34;", "&#39;", "&amp;", "&lt;", "&gt;", "&#x9;", "&#xA;", "&#xD;", "\uFFFD"}

const (
	escReplace = 9    // index of U+FFFD in escapes
	escMulti   = 0xFF // not an index: decode the sequence, then decide
)

var escClass = func() (t [256]uint8) {
	for b := 0; b < 0x20; b++ {
		t[b] = escReplace // a control character outside XML's range
	}
	for b := 0x80; b < 0x100; b++ {
		t[b] = escMulti
	}
	t['"'], t['\''], t['&'], t['<'], t['>'], t['\t'], t['\n'], t['\r'] = 1, 2, 3, 4, 5, 6, 7, 8
	return t
}()

// multiByte decodes the sequence at the start of s (its first byte is of
// class escMulti) and reports whether it must be replaced by U+FFFD.
func multiByte(s []byte) (width int, replace bool) {
	r, width := utf8.DecodeRune(s)
	return width, !xmlCharOK(r) || (r == utf8.RuneError && width == 1)
}

// escapedLen prices appendEscaped's output without writing it, so the
// encoder can allocate the result exactly once.
func escapedLen(s []byte) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch c := escClass[s[i]]; c {
		case 0:
		case escMulti:
			width, replace := multiByte(s[i:])
			if replace {
				n += len("\uFFFD") - width
			}
			i += width - 1
		default:
			n += len(escapes[c]) - 1
		}
	}
	return n
}

// appendEscaped appends the xml.EscapeText encoding of s to dst.
func appendEscaped(dst, s []byte) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := escClass[s[i]]
		if c == 0 {
			i++
			continue
		}
		width := 1
		if c == escMulti {
			var replace bool
			if width, replace = multiByte(s[i:]); !replace {
				i += width
				continue
			}
			c = escReplace
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, escapes[c]...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// xmlCharOK mirrors encoding/xml's isInCharacterRange: the XML 1.0
// definition of a legal character.
func xmlCharOK(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// appendUnescaped reverses appendEscaped. ok reports whether every entity
// was one the canonical escaper emits; a foreign entity aborts the fast
// path (the generic decoder handles the full XML entity zoo).
func appendUnescaped(dst, s []byte) (_ []byte, ok bool) {
	for {
		amp := bytes.IndexByte(s, '&')
		if amp < 0 {
			return append(dst, s...), true
		}
		dst = append(dst, s[:amp]...)
		s = s[amp:]
		var rep byte
		var n int
		switch {
		case len(s) >= 5 && s[1] == 'a' && s[2] == 'm' && s[3] == 'p' && s[4] == ';':
			rep, n = '&', 5
		case len(s) >= 4 && s[1] == 'l' && s[2] == 't' && s[3] == ';':
			rep, n = '<', 4
		case len(s) >= 4 && s[1] == 'g' && s[2] == 't' && s[3] == ';':
			rep, n = '>', 4
		case len(s) >= 5 && s[1] == '#' && s[2] == '3' && s[3] == '4' && s[4] == ';':
			rep, n = '"', 5
		case len(s) >= 5 && s[1] == '#' && s[2] == '3' && s[3] == '9' && s[4] == ';':
			rep, n = '\'', 5
		case len(s) >= 5 && s[1] == '#' && s[2] == 'x' && s[4] == ';' && (s[3] == '9' || s[3] == 'A' || s[3] == 'D'):
			switch s[3] {
			case '9':
				rep = '\t'
			case 'A':
				rep = '\n'
			default:
				rep = '\r'
			}
			n = 5
		default:
			return dst, false
		}
		dst = append(dst, rep)
		s = s[n:]
	}
}

// scratchPool holds unescape buffers; reports churn through here at ingest
// rate, so the capacity warms up to the largest report seen and stays.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// textUntilTag returns the bytes before the next '<' and the rest starting
// at that '<'. Escaped canonical text cannot contain '<', so the first
// occurrence always opens the following tag.
func textUntilTag(s []byte) (text, rest []byte, ok bool) {
	lt := bytes.IndexByte(s, '<')
	if lt < 0 {
		return nil, nil, false
	}
	return s[:lt], s[lt:], true
}

// decodeFast decodes an envelope in the exact canonical layout Encode
// produces. ok=false means "not canonical", not "invalid".
func decodeFast(data []byte) (*Envelope, bool) {
	switch {
	case bytes.HasPrefix(data, []byte(bodyPrefix)):
		rest := data[len(bodyPrefix):]
		addr, rest, ok := textUntilTag(rest)
		if !ok || !bytes.HasPrefix(rest, []byte(bodyMid)) {
			return nil, false
		}
		escReport, rest, ok := textUntilTag(rest[len(bodyMid):])
		if !ok || !bytes.Equal(rest, []byte(bodySuffix)) {
			return nil, false
		}
		id, ok := parseAddr(addr)
		if !ok {
			return nil, false
		}
		scratch := scratchPool.Get().(*[]byte)
		buf, ok := appendUnescaped((*scratch)[:0], escReport)
		*scratch = buf[:0]
		if !ok {
			scratchPool.Put(scratch)
			return nil, false
		}
		report := make([]byte, len(buf))
		copy(report, buf)
		scratchPool.Put(scratch)
		return &Envelope{Mode: Body, Branch: id, Report: report}, true

	case bytes.HasPrefix(data, []byte(attachPrefix)):
		rest := data[len(attachPrefix):]
		addr, rest, ok := textUntilTag(rest)
		if !ok || !bytes.HasPrefix(rest, []byte(attachMid)) {
			return nil, false
		}
		rest = rest[len(attachMid):]
		quote := bytes.IndexByte(rest, '"')
		if quote < 0 || !bytes.HasPrefix(rest[quote:], []byte(attachSuffix)) {
			return nil, false
		}
		length, err := strconv.Atoi(string(rest[:quote]))
		if err != nil || length < 0 {
			return nil, false
		}
		payload := rest[quote+len(attachSuffix):]
		if len(payload) < length {
			return nil, false // truncated: let the generic path report it
		}
		id, ok := parseAddr(addr)
		if !ok {
			return nil, false
		}
		return &Envelope{Mode: Attachment, Branch: id, Report: payload[:length]}, true
	}
	return nil, false
}

// parseAddr unescapes a canonical address and parses it.
func parseAddr(escaped []byte) (branch.ID, bool) {
	scratch := scratchPool.Get().(*[]byte)
	buf, ok := appendUnescaped((*scratch)[:0], escaped)
	s := string(buf)
	*scratch = buf[:0]
	scratchPool.Put(scratch)
	if !ok {
		return branch.ID{}, false
	}
	id, err := branch.Parse(s)
	if err != nil {
		return branch.ID{}, false
	}
	return id, true
}

// addressFast peeks the address of a canonical envelope in either mode,
// returning the unescaped identifier text.
func addressFast(data []byte) (string, bool) {
	var rest []byte
	switch {
	case bytes.HasPrefix(data, []byte(bodyPrefix)):
		rest = data[len(bodyPrefix):]
	case bytes.HasPrefix(data, []byte(attachPrefix)):
		rest = data[len(attachPrefix):]
	default:
		return "", false
	}
	addr, rest, ok := textUntilTag(rest)
	if !ok || !bytes.HasPrefix(rest, []byte("</address>")) {
		return "", false
	}
	scratch := scratchPool.Get().(*[]byte)
	buf, ok := appendUnescaped((*scratch)[:0], addr)
	s := string(buf)
	*scratch = buf[:0]
	scratchPool.Put(scratch)
	if !ok {
		return "", false
	}
	return s, true
}
