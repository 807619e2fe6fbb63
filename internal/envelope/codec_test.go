package envelope

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"inca/internal/branch"
)

func TestAppendEscapedMatchesStdlib(t *testing.T) {
	cases := [][]byte{
		[]byte(""),
		[]byte("plain text"),
		[]byte(`<a href="x">&'quoted'</a>`),
		[]byte("tab\there nl\nhere cr\rhere"),
		[]byte("unicode é ☃ 中文"),
		[]byte("invalid \xff byte"),
		[]byte("control \x01 char"),
		{0xef, 0xbf, 0xbd}, // literal U+FFFD
	}
	for _, c := range cases {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, c); err != nil {
			t.Fatal(err)
		}
		got := appendEscaped(nil, c)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendEscaped(%q) = %q, want %q", c, got, want.Bytes())
		}
		if n := escapedLen(c); n != len(got) {
			t.Errorf("escapedLen(%q) = %d, want %d", c, n, len(got))
		}
	}
}

func TestAppendEscapedMatchesStdlibProperty(t *testing.T) {
	f := func(s []byte) bool {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, s); err != nil {
			return true // stdlib refused; nothing to compare
		}
		got := appendEscaped(nil, s)
		return bytes.Equal(got, want.Bytes()) && escapedLen(s) == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnescapeInvertsEscape(t *testing.T) {
	f := func(s []byte) bool {
		if !bytes.Equal(appendEscaped(nil, s), s) {
			// Escaping changed the content; only round-trip inputs whose
			// escape is lossless (no invalid-rune replacement).
			var buf bytes.Buffer
			xml.EscapeText(&buf, s)
			back, ok := appendUnescaped(nil, buf.Bytes())
			if !ok {
				return false
			}
			// The escaper may have replaced invalid runes; re-escape to
			// compare canonical forms.
			return bytes.Equal(appendEscaped(nil, back), buf.Bytes())
		}
		back, ok := appendUnescaped(nil, s)
		return ok && bytes.Equal(back, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnescapeRejectsForeignEntities(t *testing.T) {
	for _, s := range []string{"&quot;", "&apos;", "&#65;", "&unknown;", "&", "&am"} {
		if _, ok := appendUnescaped(nil, []byte(s)); ok {
			t.Errorf("appendUnescaped accepted %q", s)
		}
	}
}

func TestDecodeFastMatchesGeneric(t *testing.T) {
	payloads := [][]byte{
		[]byte("<r/>"),
		[]byte("<r><v>1 &lt; 2 &amp; 3</v></r>"),
		[]byte("<r>quotes \" and ' and tabs\t</r>"),
		[]byte("<r>unicode é ☃</r>"),
	}
	for _, mode := range []Mode{Body, Attachment} {
		for _, p := range payloads {
			data, err := Encode(mode, testID, p)
			if err != nil {
				t.Fatal(err)
			}
			fast, ok := decodeFast(data)
			if !ok {
				t.Fatalf("%s: canonical envelope missed the fast path: %s", mode, data)
			}
			gen, err := decodeGeneric(data)
			if err != nil {
				t.Fatalf("%s: generic decode: %v", mode, err)
			}
			if fast.Mode != gen.Mode || !fast.Branch.Equal(gen.Branch) || !bytes.Equal(fast.Report, gen.Report) {
				t.Fatalf("%s: fast %+v != generic %+v", mode, fast, gen)
			}
		}
	}
}

func TestDecodeFallsBackOnForeignEnvelopes(t *testing.T) {
	// Whitespace, reordered attributes, foreign entities: the fast path
	// must decline and the generic decoder must still answer.
	foreign := []string{
		`<envelope mode="body"> <address>a=1</address><report>&#65;</report></envelope>`,
		"<envelope mode=\"body\"><address>a=1</address><report>x</report></envelope>\n",
		`<envelope mode="body"><address>a=1</address><report>r &quot;q&quot;</report></envelope>`,
	}
	for _, s := range foreign {
		if _, ok := decodeFast([]byte(s)); ok {
			t.Errorf("fast path claimed foreign envelope %q", s)
		}
		if _, err := Decode([]byte(s)); err != nil {
			t.Errorf("Decode rejected foreign envelope %q: %v", s, err)
		}
	}
}

func TestAddressFastMatchesGeneric(t *testing.T) {
	ids := []branch.ID{
		testID,
		branch.MustParse("a=1"),
		{},
	}
	for _, mode := range []Mode{Body, Attachment} {
		for _, id := range ids {
			data, err := Encode(mode, id, []byte("<r/>"))
			if err != nil {
				t.Fatal(err)
			}
			s, ok := addressFast(data)
			if !ok {
				t.Fatalf("%s: canonical envelope missed the address fast path", mode)
			}
			fast, err := branch.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := addressGeneric(data)
			if err != nil {
				t.Fatal(err)
			}
			if !fast.Equal(gen) {
				t.Fatalf("%s: fast %s != generic %s", mode, fast, gen)
			}
		}
	}
}

func TestDecodeConcurrentPoolSafety(t *testing.T) {
	// Hammer Decode from many goroutines with distinct payloads; pooled
	// scratch reuse must never bleed bytes between envelopes.
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				payload := []byte(fmt.Sprintf("<r><g>%d</g><i>%d</i><pad>%d</pad></r>", g, i, r.Int63()))
				mode := Body
				if i%2 == 0 {
					mode = Attachment
				}
				data, err := Encode(mode, testID, payload)
				if err != nil {
					t.Error(err)
					return
				}
				env, err := Decode(data)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(env.Report, payload) {
					t.Errorf("g%d i%d: payload corrupted: %s", g, i, env.Report)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkEncodeBody(b *testing.B) {
	payload := bytes.Repeat([]byte("<x>data &amp; more</x>"), 2000)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(Body, testID, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBodyFastPath(b *testing.B) {
	payload := bytes.Repeat([]byte("<x>data &amp; more</x>"), 2000)
	data, err := Encode(Body, testID, payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if len(env.Report) != len(payload) {
			b.Fatal("payload lost")
		}
	}
}

// FuzzEncode holds the body-mode encoder to xml.EscapeText byte for byte,
// and its sizing pass to the bytes actually written, on arbitrary reports:
// valid and invalid UTF-8, every escaped byte, control characters.
func FuzzEncode(f *testing.F) {
	f.Add([]byte(`<a href="x">&'quoted'</a>` + "\t\n\r"))
	f.Add([]byte("é ☃ 中文 \U0001F600 \xef\xbf\xbd \xef\xbf\xbe \xed\xa0\x80 \xff \xc0\xaf \xf4\x90\x80\x80 \x00\x01\x7f"))
	f.Add([]byte("truncated \xe4\xb8"))
	f.Fuzz(func(t *testing.T, report []byte) {
		got, err := Encode(Body, testID, report)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		want.WriteString(bodyPrefix)
		xml.EscapeText(&want, []byte(testID.String()))
		want.WriteString(bodyMid)
		xml.EscapeText(&want, report)
		want.WriteString(bodySuffix)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("Encode(%q) =\n%q, want\n%q", report, got, want.Bytes())
		}
		if len(got) != cap(got) {
			t.Fatalf("Encode(%q): sized %d bytes, wrote %d", report, cap(got), len(got))
		}
	})
}
