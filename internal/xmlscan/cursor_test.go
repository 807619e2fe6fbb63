package xmlscan

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// cursorStream and decoderStream flatten a document to the same one-line
// form, adjacent character data joined (the decoder splits around CDATA
// where the cursor does too, but neither promises where).
func cursorStream(doc string) (string, error) {
	var c Cursor
	c.Reset([]byte(doc))
	var out strings.Builder
	for {
		tok, err := c.Next()
		if err == io.EOF {
			return out.String(), nil
		}
		if err != nil {
			return out.String(), err
		}
		switch tok.Kind {
		case StartElement:
			fmt.Fprintf(&out, "<%s>", tok.Name)
		case EndElement:
			fmt.Fprintf(&out, "</%s>", tok.Name)
		case CharData:
			out.Write(tok.AppendText(nil))
		}
	}
}

func decoderStream(doc string) (string, error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var out strings.Builder
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out.String(), nil
		}
		if err != nil {
			return out.String(), err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			fmt.Fprintf(&out, "<%s>", t.Name.Local)
		case xml.EndElement:
			fmt.Fprintf(&out, "</%s>", t.Name.Local)
		case xml.CharData:
			out.Write(t)
		}
	}
}

func TestCursorMatchesDecoder(t *testing.T) {
	for _, doc := range []string{
		`<a><b>1</b><c/>two<d x="1>2" y='"'></d ></a>`,
		"<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ENTITY e \"<x>\">]><a>\r\n<!-- <b> --><?pi <c>?><![CDATA[<d> &amp;]]>&amp;&lt;&#x41;&#66;\r</a>\n",
		`<p:a xmlns:p="u"><p:b>x</p:b></p:a><second></second>tail`,
		`<a>é&#xE9;</a>`,
	} {
		want, err := decoderStream(doc)
		if err != nil {
			t.Fatalf("%q: encoding/xml: %v", doc, err)
		}
		if got, err := cursorStream(doc); err != nil || got != want {
			t.Errorf("%q:\ncursor  %q, %v\ndecoder %q", doc, got, err, want)
		}
	}
	for _, doc := range []string{`<a><b></a></b>`, `<a>`, `</a>`, `<a><b></b>`, `<a x="1`, `<a><!-- `} {
		if got, err := cursorStream(doc); err == nil {
			t.Errorf("%q: read to the end as %q", doc, got)
		}
	}
}

func TestCursorSkipAndText(t *testing.T) {
	var c Cursor
	c.Reset([]byte(`<a><skip><deep><![CDATA[</skip>]]></deep><e/></skip><empty/><t> x &amp;<![CDATA[ y]]> </t><bad>1<i/></bad></a>`))
	next := func(kind TokenKind, name string) {
		t.Helper()
		tok, err := c.Next()
		if err != nil || tok.Kind != kind || string(tok.Name) != name {
			t.Fatalf("Next = %d %q, %v; want %d %q", tok.Kind, tok.Name, err, kind, name)
		}
	}
	next(StartElement, "a")
	next(StartElement, "skip")
	if err := c.Skip(); err != nil {
		t.Fatal(err)
	}
	next(StartElement, "empty")
	if err := c.Skip(); err != nil { // a self-closed element: its end is all there is to skip
		t.Fatal(err)
	}
	next(StartElement, "t")
	text, err := c.Text([]byte("kept:"))
	if err != nil || string(text) != "kept: x & y " {
		t.Fatalf("Text = %q, %v", text, err)
	}
	next(StartElement, "bad")
	if text, err := c.Text(nil); err == nil {
		t.Fatalf("Text over an element = %q, no error", text)
	}

	c.Reset([]byte(`<a><b></a>`))
	next(StartElement, "a")
	if err := c.Skip(); err == nil {
		t.Fatal("Skip crossed a mismatched close tag")
	}
	c.Reset([]byte(`<a><b>`))
	next(StartElement, "a")
	if err := c.Skip(); err != io.ErrUnexpectedEOF {
		t.Fatalf("Skip at the end of data: %v", err)
	}
}
