package xmlscan

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"testing"
)

func TestUnescape(t *testing.T) {
	cases := map[string]string{
		"plain":          "plain",
		"&lt;&gt;&amp;":  "<>&",
		"&quot;q&quot;":  `"q"`,
		"&apos;a&apos;":  "'a'",
		"&#34;num&#34;":  `"num"`,
		"&#x9;tab":       "\ttab",
		"broken&ent":     "broken&ent",
		"unknown&zz;ref": "unknown&zz;ref",
		"bad&#xZZ;code":  "bad&#xZZ;code",
		"a\r\nb\rc&#xD;": "a\nb\nc\r",
	}
	for in, want := range cases {
		if got := Unescape([]byte(in)); got != want {
			t.Errorf("Unescape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestScanTagBasics(t *testing.T) {
	doc := []byte(`<cache><branch name="a" value="b"></branch></cache>`)
	t1, ok, err := ScanTag(doc, 0)
	if err != nil || !ok || string(t1.Name) != "cache" || t1.Kind != Open {
		t.Fatalf("t1 = %+v %v %v", t1, ok, err)
	}
	t2, ok, _ := ScanTag(doc, t1.End)
	if !ok || string(t2.Name) != "branch" {
		t.Fatalf("t2 = %+v", t2)
	}
	if v, found := AttrValue(t2.Attrs, "value"); !found || v != "b" {
		t.Fatalf("attr = %q %v", v, found)
	}
	if _, found := AttrValue(t2.Attrs, "missing"); found {
		t.Fatal("phantom attribute")
	}
	t3, ok, _ := ScanTag(doc, t2.End)
	if !ok || t3.Kind != Close || string(t3.Name) != "branch" {
		t.Fatalf("t3 = %+v", t3)
	}
	if _, ok, _ := ScanTag(doc, len(doc)); ok {
		t.Fatal("tag found past end")
	}
	if _, _, err := ScanTag([]byte("<unterminated"), 0); err == nil {
		t.Fatal("unterminated tag accepted")
	}
}

func TestNextKinds(t *testing.T) {
	doc := []byte(`<a x="1>2" y='"'>t<!-- <b> --><?pi <c>?><![CDATA[<d>]]><!DOCTYPE e [<!ENTITY f "<g>">]><h:i  j = 'k'/></a >`)
	want := []struct {
		kind Kind
		name string
		raw  string
	}{
		{Open, "a", `<a x="1>2" y='"'>`},
		{Misc, "", `<!-- <b> -->`},
		{Misc, "", `<?pi <c>?>`},
		{CDATA, "", `<![CDATA[<d>]]>`},
		{Misc, "", `<!DOCTYPE e [<!ENTITY f "<g>">]>`},
		{Empty, "h:i", `<h:i  j = 'k'/>`},
		{Close, "a", `</a >`},
	}
	pos := 0
	for i, w := range want {
		tag, ok, err := Next(doc, pos)
		if err != nil || !ok {
			t.Fatalf("tag %d: ok=%v err=%v", i, ok, err)
		}
		if tag.Kind != w.kind || string(tag.Name) != w.name || string(doc[tag.Start:tag.End]) != w.raw {
			t.Fatalf("tag %d = kind %d name %q raw %q, want %d %q %q", i, tag.Kind, tag.Name, doc[tag.Start:tag.End], w.kind, w.name, w.raw)
		}
		if tag.Kind == Empty {
			if v, found := AttrValue(tag.Attrs, "j"); !found || v != "k" {
				t.Fatalf("attr j = %q %v", v, found)
			}
		}
		pos = tag.End
	}
	if _, ok, _ := Next(doc, pos); ok {
		t.Fatal("markup found past end")
	}
}

func TestAttrValue(t *testing.T) {
	cases := []struct {
		attrs, name, want string
		found             bool
	}{
		{`name="a" value="b"`, "name", "a", true},
		{`fullname="x" name="y"`, "name", "y", true},
		{`p:name="x"`, "name", "x", true},
		{`name="first" name="last"`, "name", "last", true},
		{`name = 'q&quot;&amp;&lt;&#39;' `, "name", `q"&<'`, true},
		{`value="b"`, "name", "", false},
		{`name`, "name", "", false},
		{`name="unterminated`, "name", "", false},
		{``, "name", "", false},
	}
	for _, c := range cases {
		got, found := AttrValue([]byte(c.attrs), c.name)
		if got != c.want || found != c.found {
			t.Errorf("AttrValue(%q, %q) = %q %v, want %q %v", c.attrs, c.name, got, found, c.want, c.found)
		}
	}
}

func TestSkipSubtree(t *testing.T) {
	for _, c := range []struct {
		doc, want string
	}{
		{`<a></a>rest`, `<a></a>`},
		{`<a/>rest`, `<a/>`},
		{`<a><b x=">"><c/></b><!-- </a> --><![CDATA[</a>]]><?x </a>?></a>rest`, `<a><b x=">"><c/></b><!-- </a> --><![CDATA[</a>]]><?x </a>?></a>`},
		{`<entry><entry><branch></branch></entry></entry></entry>`, `<entry><entry><branch></branch></entry></entry>`},
		// Markup the in-place paths must hand to Next or cut as Next does.
		{`<a><b></b ></a>rest`, `<a><b></b ></a>`},
		{`<a><b x="/>"></b></a>rest`, `<a><b x="/>"></b></a>`},
		{`<a><a/ ></a/></a>rest`, `<a><a/ ></a/></a>`},
		{`<a><></></a>rest`, `<a><></></a>`},
		{"<a\t><b\n></b\r\n><c\t></c><d\r/></a\t>rest", "<a\t><b\n></b\r\n><c\t></c><d\r/></a\t>"},
		{`<a><b"/>text<c/></a>rest`, `<a><b"/>text<c/></a>`},
	} {
		doc := []byte(c.doc)
		tag, _, _ := Next(doc, 0)
		end, err := SkipSubtree(doc, tag)
		if err != nil || string(doc[:end]) != c.want {
			t.Errorf("SkipSubtree(%q) = %q %v, want %q", c.doc, doc[:max(end, 0)], err, c.want)
		}
		checkAgainstRef(t, doc, tag)
	}
	for _, bad := range []string{
		`<a>`,
		`<a><b></a></b>`,
		`<a><b></b>`,
		`<a></b>`,
		`<a><!-- </a>`,
		`<a><![CDATA[ </a>`,
		`<a><b x="></b></a>`,
		`<a><`,
		`<a><!-x--></a>`,
		`<a><![CDATAX[]]></a>`,
		`<a></ab>`,
		`<a><b></a >`,
		`<a><b x="/>"></a>`,
		`<a><a/ ></a>`,
		`<a><></a>`,
		"<a\t></a\t",
		`<a><!-- -- `,
		`<a><?pi `,
		`<a><![CDATA[ ]]`,
		`<a><!DOCTYPE d [ `,
		`<a><b`,
		`<a></a`,
		`<a><b x='>`,
	} {
		doc := []byte(bad)
		tag, ok, err := Next(doc, 0)
		if err != nil || !ok {
			t.Fatalf("%q: no root tag", bad)
		}
		if end, err := SkipSubtree(doc, tag); err == nil {
			t.Errorf("SkipSubtree(%q) accepted, end %d", bad, end)
		}
		checkAgainstRef(t, doc, tag)
	}
}

// skipSubtreeRef is SkipSubtree as it was before its close and open tags
// were resolved in place: every piece of markup through Next. It is the
// oracle the fast loop must agree with, offset and error text alike.
func skipSubtreeRef(data []byte, t Tag) (int, error) {
	if t.Kind == Empty {
		return t.End, nil
	}
	var buf [16][]byte // open elements, innermost last; report bodies nest a few levels
	stack := append(buf[:0], t.Name)
	pos := t.End
	for {
		n, ok, err := Next(data, pos)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("xmlscan: <%s> at %d is never closed", t.Name, t.Start)
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

// checkAgainstRef fails unless SkipSubtree and skipSubtreeRef return the
// same offset and the same error text for tag.
func checkAgainstRef(t *testing.T, data []byte, tag Tag) {
	t.Helper()
	end, err := SkipSubtree(data, tag)
	wantEnd, wantErr := skipSubtreeRef(data, tag)
	if end != wantEnd || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("SkipSubtree(%q) from %d = %d, %v; reference loop %d, %v", data, tag.Start, end, err, wantEnd, wantErr)
	}
}

// skipSeeds are documents whose markup the fast loop must hand to Next:
// close tags that are not exactly </name>, quoted '/>' and '>', a name
// ending in '/' or in a space other than ' ', an empty name, and each kind
// of markup left unterminated.
var skipSeeds = []string{
	`<a><b></b ></a>`,
	`<a></ab>`,
	`<a><b x="/>"></b></a>`,
	`<a><a/ ></a/></a>`,
	`<a><></></a>`,
	"<a><b\t></b><c\n></c\n><d\r x='1'></d ></a>",
	`<a><!-- </a> --></a>`,
	`<a><!-- </a>`,
	`<a><?pi </a>?></a>`,
	`<a><?pi </a>`,
	`<a><![CDATA[</a>]]></a>`,
	`<a><![CDATA[</a>`,
	`<a><!DOCTYPE d [<!ENTITY e "</a>">]></a>`,
	`<a><!DOCTYPE d [`,
	`<a><b x="1`,
	`<a><b`,
	`<a></a`,
	`<a><`,
	`<a><!-x--></a>`,
	`<a>text&lt;more text than one probe holds</a>`,
}

// FuzzSkipSubtree holds SkipSubtree to the reference loop on every input,
// malformed ones included: from every open tag Next finds, both return the
// same offset and the same error text.
func FuzzSkipSubtree(f *testing.F) {
	for _, seed := range skipSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for pos := 0; ; {
			tag, ok, err := Next(data, pos)
			if err != nil || !ok {
				return
			}
			if tag.Kind == Open || tag.Kind == Empty {
				checkAgainstRef(t, data, tag)
			}
			pos = tag.End
		}
	})
}

// elementSpans is the encoding/xml reference: the byte range of every
// element in data, in document order of their start tags.
func elementSpans(data []byte) ([][2]int, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var spans [][2]int
	var open []int
	for {
		pos := int(dec.InputOffset())
		tok, err := dec.Token()
		if err == io.EOF {
			return spans, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok.(type) {
		case xml.StartElement:
			open = append(open, len(spans))
			spans = append(spans, [2]int{pos, -1})
		case xml.EndElement:
			spans[open[len(open)-1]][1] = int(dec.InputOffset())
			open = open[:len(open)-1]
		}
	}
}

// FuzzScan holds the package's contract: on any document encoding/xml
// accepts, walking with Next and SkipSubtree finds the same elements at
// the same offsets; on anything else the scanner may disagree but must not
// panic or run past the input.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{
		`<cache><branch name="vo" value="tg"><entry><r a="1">x</r></entry></branch></cache>`,
		`<a x="1>2" y='"'>t<!-- <b> --><?pi <c>?><![CDATA[<d>]]><!DOCTYPE e [<!ENTITY f "<g>">]><h:i j = 'k'/></a >`,
		`<a><b/><c></c>&lt;<d>&#x3e;</d></a>`,
		`<!D <!-- > --> "<" '>' <x>><a></a>`,
		`<a><b></a></b>`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, oracleErr := elementSpans(data)
		var got [][2]int
		var walk func(pos, end int) error
		walk = func(pos, end int) error {
			for pos < end {
				tag, ok, err := Next(data[:end], pos)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				pos = tag.End
				switch tag.Kind {
				case Close:
					return nil
				case Open, Empty:
					stop, err := SkipSubtree(data[:end], tag)
					if err != nil {
						return err
					}
					if stop < tag.End || stop > end {
						t.Fatalf("SkipSubtree returned %d for tag [%d,%d) in %d bytes", stop, tag.Start, tag.End, end)
					}
					got = append(got, [2]int{tag.Start, stop})
					if tag.Kind == Open {
						if err := walk(tag.End, stop); err != nil {
							return err
						}
					}
					pos = stop
				}
			}
			return nil
		}
		err := walk(0, len(data))
		if oracleErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("encoding/xml accepts %q, scanner: %v", data, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: scanner found %d elements, encoding/xml %d", data, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: element %d at %v, encoding/xml has %v", data, i, got[i], want[i])
			}
		}
	})
}
