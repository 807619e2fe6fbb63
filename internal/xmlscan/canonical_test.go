package xmlscan

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"unicode/utf8"
)

// The differential check against the writer is FuzzCanonical in
// internal/depot; this table pins what is inside the accepted set and what
// each exclusion refuses.
func TestCanonical(t *testing.T) {
	for _, doc := range []string{
		`<a></a>`,
		" \n\t\r<a></a>",
		`<a b="1" c-d.e_f="2"><b1></b1>text</a>`,
		`<a b="&#34;&#39;&amp;&lt;&gt;&#x9;&#xA;&#xD;">&#34;&#39;&amp;&lt;&gt;&#x9;` + "\n" + `&#xD;</a>`,
		"<a>é ✓ \U0001F600 �</a>",
		`<a></a><b></b>`,
		`<a></a>tail` + "\n",
		`<xmlns xmlnsx="1"></xmlns>`,
		`<a xmlns="u"></a>`, `<p:a xmlns:p="u" p:b="1"></p:a>`, `<a: :b="1"></a:>`, `<:></:>`,
		strings.Repeat("<d>", 40) + strings.Repeat("</d>", 40),
	} {
		payload, ok := Canonical([]byte(doc))
		if want := strings.TrimLeft(doc, " \n\t\r"); !ok || string(payload) != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q, true", doc, payload, ok, want)
		}
	}
	for _, doc := range []string{
		``, ` `, `text`, `x<a></a>`,
		`<a/>`, `<a b='1'></a>`, `<a ></a>`, `<a></a >`, `<a  b="1"></a>`, `<a b ="1"></a>`, `<a b= "1"></a>`,
		`<a b="1"c="2"></a>`, `<a b></a>`, `<a b="1></a>`, "<a\tb=\"1\"></a>",
		`<a>&apos;</a>`, `<a>&quot;</a>`, `<a>&#65;</a>`, `<a>&#xa;</a>`, `<a>&#xA;</a>`, `<a>&</a>`, `<a>&amp</a>`,
		`<a>"</a>`, `<a>'</a>`, `<a>></a>`, "<a>\t</a>", "<a>\r\n</a>", "<a b=\"\n\"></a>", `<a b="<"></a>`,
		"<a>\x00</a>", "<a>\x7f\x80</a>", "<a>\xc0\xaf</a>", "<a>\xed\xa0\x80</a>", "<a>\xef\xbf\xbe</a>", "<a>\xf4\x90\x80\x80</a>",
		`<a><![CDATA[x]]></a>`, `<a><!-- c --></a>`, `<a><?pi?></a>`, `<?xml version="1.0"?><a></a>`, `<!DOCTYPE a><a></a>`,
		`<a:b:c></a:b:c>`, `<a b::c="1"></a>`, `<p:a></q:a>`, `<é></é>`, `<1></1>`, `<-a></-a>`,
		`<a><b></a></b>`, `<a></b>`, `<ab></a>`, `<a></ab>`, `<a>`, `</a>`, `<a></a></a>`, `<a`, `<a></a`, `<`,
	} {
		if payload, ok := Canonical([]byte(doc)); ok {
			t.Errorf("Canonical(%q) accepted as %q", doc, payload)
		}
	}
}

func TestCanonicalDoesNotAllocate(t *testing.T) {
	doc := []byte(`<r a="1"><h><g>2004-07-07T00:00:00Z</g></h><b><v>1 &amp; 2</v><w>é</w></b></r>`)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := Canonical(doc); !ok {
			t.Fatal("not canonical")
		}
	}); n != 0 {
		t.Errorf("Canonical allocates %v times per call", n)
	}
}

// canonicalCharsBytewise is canonicalChars without the eight-byte stride:
// the per-byte loop the stride must agree with.
func canonicalCharsBytewise(doc []byte, i int, attr bool) int {
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

// TestCanonicalCharsStride puts each byte that ends a plain run at every
// offset of the first two words of a 24-byte run, in character data and in
// an attribute value, and holds the stride to the per-byte loop: the same
// terminator offset or refusal, and the same verdict on the document.
func TestCanonicalCharsStride(t *testing.T) {
	for _, special := range []string{"<", `"`, "&", "'", ">", "\n", "\t", "\x01", "\x80", "é", "\xff"} {
		for off := 0; off < 16; off++ {
			run := []byte(strings.Repeat("x", 24))
			run = append(run[:off:off], append([]byte(special), run[off+len(special):]...)...)
			for _, doc := range []string{"<a>" + string(run) + "</a>", `<a b="` + string(run) + `"></a>`} {
				attr := doc[2] == ' '
				start := strings.IndexAny(doc, `>"`) + 1
				got := canonicalChars([]byte(doc), start, attr)
				want := canonicalCharsBytewise([]byte(doc), start, attr)
				if got != want {
					t.Errorf("canonicalChars(%q, %d, %v) = %d, per-byte loop %d", doc, start, attr, got, want)
				}
				// The verdict the per-byte loop gives the whole document.
				wantOK := want >= 0 && doc[want:] == map[bool]string{false: "</a>", true: `"></a>`}[attr]
				if _, ok := Canonical([]byte(doc)); ok != wantOK {
					t.Errorf("Canonical(%q) = %v, per-byte loop %v", doc, ok, wantOK)
				}
			}
		}
	}
}

// TestAppendCanonical pins how the writer spells what the decoder reads,
// and that it refuses what the decoder refuses with the decoder's words.
func TestAppendCanonical(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{`<r><x:pad xmlns:x="u">1</x:pad></r>`, `<r><x:pad xmlns:x="u">1</x:pad></r>`},
		{"<?xml version=\"1.0\"?>\n<!DOCTYPE r>\n<r xmlns='u' ><v/><!-- c --><?pi x?></r >\n",
			`<r xmlns="u"><v></v></r>` + "\n"},
		{"x<a b = 'it&apos;s\n&#65;'><![CDATA[<&>]]>\t\r\n&quot;</a>",
			"<a b=\"it&#39;s&#xA;A\">&lt;&amp;&gt;&#x9;\n&#34;</a>"},
		{`<é a:b="1"></é>`, `<é a:b="1"></é>`},
	} {
		got, err := AppendCanonical([]byte("keep"), []byte(tc.doc))
		if err != nil || string(got) != "keep"+tc.want {
			t.Errorf("AppendCanonical(%q) = %q, %v; want %q", tc.doc, got, err, "keep"+tc.want)
		}
	}
	for _, tc := range []struct{ doc, err string }{
		{``, `xmlscan: no element`},
		{`<!-- c -->text`, `xmlscan: no element`},
		{`<a><b></a>`, `XML syntax error on line 1: element <b> closed by </a>`},
		{`<p:a></q:a>`, `XML syntax error on line 1: element <a> in space p closed by </a> in space q`},
		{"<a>\n</b>", `XML syntax error on line 2: element <a> closed by </b>`},
		{`</a>`, `XML syntax error on line 1: unexpected end element </a>`},
		{`<a>`, `XML syntax error on line 1: unexpected EOF`},
		{`<a>&bad;</a>`, `XML syntax error on line 1: invalid character entity &bad;`},
	} {
		if got, err := AppendCanonical([]byte("keep"), []byte(tc.doc)); err == nil || err.Error() != tc.err || string(got) != "keep" {
			t.Errorf("AppendCanonical(%q) = %q, %v; want the error %q", tc.doc, got, err, tc.err)
		}
	}
}

// TestReplaceIllegal: one U+FFFD per excluded byte or rune, for bytes and
// for strings, and nothing else changed; on any of the inputs the result
// holds no character xml.EscapeText would replace.
func TestReplaceIllegal(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"<r>plain \t\n\r é \uFFFD</r>", ""},
		{"", ""},
		{"a\x01b", "a\uFFFDb"},
		{"\x00\x1f", "\uFFFD\uFFFD"},
		{"\xe2\x82", "\uFFFD\uFFFD"},
		{"\xe2\x82<", "\uFFFD\uFFFD<"},
		{"x\xff", "x\uFFFD"},
		{"\uFFFE\uFFFF", "\uFFFD\uFFFD"},
		{"\xed\xa0\x80", "\uFFFD\uFFFD\uFFFD"}, // a surrogate: three bytes of invalid UTF-8
		{"<!--a\x01b-->", "<!--a\uFFFDb-->"},
	} {
		want, wantReplaced := tc.want, tc.want != ""
		if !wantReplaced {
			want = tc.in
		}
		if got, replaced := ReplaceIllegal([]byte(tc.in)); string(got) != want || replaced != wantReplaced {
			t.Errorf("ReplaceIllegal(%q) = %q, %v; want %q, %v", tc.in, got, replaced, want, wantReplaced)
		}
		if got, replaced := ReplaceIllegal(tc.in); got != want || replaced != wantReplaced {
			t.Errorf("ReplaceIllegal(string %q) = %q, %v; want %q, %v", tc.in, got, replaced, want, wantReplaced)
		}
		var escaped, again bytes.Buffer
		xml.EscapeText(&escaped, []byte(tc.in))
		xml.EscapeText(&again, []byte(want))
		if escaped.String() != again.String() {
			t.Errorf("%q: xml.EscapeText writes %q, and %q of the result", tc.in, escaped.String(), again.String())
		}
		if _, replaced := ReplaceIllegal(want); replaced {
			t.Errorf("%q: the result %q still holds an excluded character", tc.in, want)
		}
	}
}
