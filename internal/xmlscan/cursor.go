package xmlscan

import (
	"bytes"
	"fmt"
	"io"
)

// TokenKind classifies a Cursor token.
type TokenKind uint8

const (
	StartElement TokenKind = iota
	EndElement
	CharData
)

// Token is one step of a Cursor.
type Token struct {
	Kind TokenKind
	Name []byte // StartElement, EndElement: the local name

	raw   []byte // CharData as written
	cdata bool   // raw came from a CDATA section: no references to resolve
}

// AppendText appends a CharData token's text to dst, decoded as
// encoding/xml delivers it: references resolved, CR and CRLF folded to LF.
func (t Token) AppendText(dst []byte) []byte {
	return appendText(dst, t.raw, !t.cdata)
}

// Cursor reads a document as the stream of start tags, end tags and
// character data encoding/xml's Decoder would deliver, for readers that
// need content as well as structure. A self-closed tag yields a start and
// an end; a CDATA section yields character data; comments, processing
// instructions and directives are passed over; attributes are not
// reported. Like the rest of the package it checks structure only (tags
// terminate, every end tag names the innermost open element), so on a
// document encoding/xml accepts the two streams agree, and on one it
// refuses the Cursor may read on.
//
// The zero Cursor is not ready: call Reset. A Cursor must not be copied
// once in use.
type Cursor struct {
	data []byte
	pos  int
	open [][]byte   // names as written of the open elements, innermost last
	buf  [16][]byte // backs open for documents nested at most 16 deep
	owed bool       // the innermost element was self-closed: its end is due
}

// Reset points the cursor at the start of data, with no element open.
func (c *Cursor) Reset(data []byte) {
	c.data, c.pos, c.owed = data, 0, false
	c.open = c.buf[:0]
}

// Next returns the next token. At the end of the data it returns io.EOF,
// or io.ErrUnexpectedEOF while elements are still open.
func (c *Cursor) Next() (Token, error) {
	for {
		if c.owed {
			return c.pop(), nil
		}
		t, ok, err := Next(c.data, c.pos)
		if err != nil {
			return Token{}, err
		}
		textEnd := len(c.data)
		if ok {
			textEnd = t.Start
		}
		if textEnd > c.pos {
			// The markup behind the text is found again by the next call.
			text := c.data[c.pos:textEnd]
			c.pos = textEnd
			return Token{Kind: CharData, raw: text}, nil
		}
		if !ok {
			if len(c.open) > 0 {
				return Token{}, io.ErrUnexpectedEOF
			}
			return Token{}, io.EOF
		}
		c.pos = t.End
		switch t.Kind {
		case Open, Empty:
			c.open = append(c.open, t.Name)
			c.owed = t.Kind == Empty
			return Token{Kind: StartElement, Name: LocalName(t.Name)}, nil
		case Close:
			if err := c.close(t); err != nil {
				return Token{}, err
			}
			return c.pop(), nil
		case CDATA:
			return Token{Kind: CharData, raw: c.data[t.Start+len("<![CDATA[") : t.End-len("]]>")], cdata: true}, nil
		}
	}
}

// close checks that the end tag t names the innermost open element.
func (c *Cursor) close(t Tag) error {
	if len(c.open) == 0 {
		return fmt.Errorf("xmlscan: </%s> at %d closes nothing", t.Name, t.Start)
	}
	if top := c.open[len(c.open)-1]; !bytes.Equal(top, t.Name) {
		return fmt.Errorf("xmlscan: <%s> closed by </%s> at %d", top, t.Name, t.Start)
	}
	return nil
}

// pop ends the innermost open element.
func (c *Cursor) pop() Token {
	top := len(c.open) - 1
	name := c.open[top]
	c.open, c.owed = c.open[:top], false
	return Token{Kind: EndElement, Name: LocalName(name)}
}

// Skip moves past the end tag of the innermost open element — the one
// whose StartElement was last returned and not yet ended — whatever it
// holds.
func (c *Cursor) Skip() error {
	depth := len(c.open)
	if c.owed {
		c.pop()
		return nil
	}
	for {
		t, ok, err := Next(c.data, c.pos)
		if err != nil {
			return err
		}
		if !ok {
			return io.ErrUnexpectedEOF
		}
		c.pos = t.End
		switch t.Kind {
		case Open:
			c.open = append(c.open, t.Name)
		case Close:
			if err := c.close(t); err != nil {
				return err
			}
			if c.pop(); len(c.open) < depth {
				return nil
			}
		}
	}
}

// Text appends to dst the character data of the innermost open element and
// moves past its end tag. An element inside it is an error.
func (c *Cursor) Text(dst []byte) ([]byte, error) {
	for {
		t, err := c.Next()
		if err != nil {
			return dst, err
		}
		switch t.Kind {
		case CharData:
			dst = t.AppendText(dst)
		case EndElement:
			return dst, nil
		case StartElement:
			return dst, fmt.Errorf("xmlscan: unexpected element <%s> in text content", t.Name)
		}
	}
}
