package xmlscan

import (
	"strings"
	"testing"
)

// The differential check against the round trip itself is FuzzCanonical in
// internal/depot, beside the encoder path it must agree with; this table
// pins what is inside the accepted set and what each exclusion refuses.
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
		`<a xmlns="u"></a>`, `<p:a></p:a>`, `<a p:b="1"></a>`, `<é></é>`, `<1></1>`, `<-a></-a>`,
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
