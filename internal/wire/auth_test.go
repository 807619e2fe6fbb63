package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSignVerify(t *testing.T) {
	key := []byte("shared-secret")
	m := &Message{Branch: "r=1,vo=tg", Hostname: "login1", Report: []byte("<r>x</r>")}
	SignMessage(m, key)
	if len(m.Signature) == 0 {
		t.Fatal("no signature attached")
	}
	if !Verify(m, key) {
		t.Fatal("valid signature rejected")
	}
	if Verify(m, []byte("wrong-key")) {
		t.Fatal("wrong key accepted")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key := []byte("k")
	base := &Message{Branch: "r=1", Hostname: "h", Report: []byte("<r>ok</r>")}
	SignMessage(base, key)
	tampered := []*Message{
		{Branch: "r=2", Hostname: base.Hostname, Report: base.Report, Signature: base.Signature},
		{Branch: base.Branch, Hostname: "evil", Report: base.Report, Signature: base.Signature},
		{Branch: base.Branch, Hostname: base.Hostname, Report: []byte("<r>bad</r>"), Signature: base.Signature},
		{Branch: base.Branch, Hostname: base.Hostname, Report: base.Report}, // missing sig
	}
	for i, m := range tampered {
		if Verify(m, key) {
			t.Errorf("tampered message %d verified", i)
		}
	}
}

func TestSignatureFieldBoundaries(t *testing.T) {
	// Moving a byte between adjacent fields must change the signature
	// (length-prefixed MAC input prevents field-boundary confusion).
	key := []byte("k")
	a := &Message{Branch: "ab", Hostname: "c", Report: []byte("d")}
	b := &Message{Branch: "a", Hostname: "bc", Report: []byte("d")}
	if bytes.Equal(Sign(a, key), Sign(b, key)) {
		t.Fatal("field-boundary collision")
	}
}

func TestSignedMessageRoundTrip(t *testing.T) {
	key := []byte("secret")
	m := &Message{Branch: "r=1", Hostname: "h", Report: []byte("<r/>")}
	SignMessage(m, key)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(got, key) {
		t.Fatal("signature lost in transit")
	}
}

func TestUnsignedMessageRoundTripKeepsNilSignature(t *testing.T) {
	m := &Message{Branch: "r=1", Hostname: "h", Report: []byte("<r/>")}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signature != nil {
		t.Fatalf("phantom signature %x", got.Signature)
	}
}

func TestSignDeterministicProperty(t *testing.T) {
	f := func(branch, host string, body []byte, key []byte) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		m := &Message{Branch: branch, Hostname: host, Report: body}
		return bytes.Equal(Sign(m, key), Sign(m, key)) && Verify(&Message{
			Branch: branch, Hostname: host, Report: body, Signature: Sign(m, key),
		}, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndAuthenticatedServer(t *testing.T) {
	key := []byte("deployment-secret")
	srv, err := Serve("127.0.0.1:0", func(m *Message, remote string) *Ack {
		if !Verify(m, key) {
			return &Ack{OK: false, Message: "bad signature"}
		}
		return &Ack{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialBare(t, srv.Addr())

	m := &Message{Branch: "r=1", Hostname: "h", Report: []byte("<r/>")}
	SignMessage(m, key)
	ack, err := c.send(m)
	if err != nil || !ack.OK {
		t.Fatalf("signed send: %v %+v", err, ack)
	}
	unsigned := &Message{Branch: "r=1", Hostname: "h", Report: []byte("<r/>")}
	ack, err = c.send(unsigned)
	if err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("unsigned message accepted by authenticating server")
	}
}
