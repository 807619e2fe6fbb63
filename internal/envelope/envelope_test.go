package envelope

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"inca/internal/branch"
)

var testID = branch.MustParse("dest=siteB,tool=pathload,site=siteA,vo=tg")

func TestRoundTripBothModes(t *testing.T) {
	payload := []byte(`<incaReport><header/><body><m><ID>x</ID><v>1 &lt; 2</v></m></body><footer/></incaReport>`)
	for _, mode := range []Mode{Body, Attachment} {
		data, err := Encode(mode, testID, payload)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		env, err := Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", mode, err)
		}
		if env.Mode != mode {
			t.Fatalf("mode = %v, want %v", env.Mode, mode)
		}
		if !env.Branch.Equal(testID) {
			t.Fatalf("%s: branch = %s", mode, env.Branch)
		}
		if !bytes.Equal(env.Report, payload) {
			t.Fatalf("%s: payload mismatch:\n got %s\nwant %s", mode, env.Report, payload)
		}
	}
}

func TestBodyModeEscapesPayload(t *testing.T) {
	payload := []byte("<a><b>text</b></a>")
	data, err := Encode(Body, testID, payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("<a>")) {
		t.Fatalf("body mode left raw markup: %s", data)
	}
	if !bytes.Contains(data, []byte("&lt;a&gt;")) {
		t.Fatalf("body mode did not escape: %s", data)
	}
}

func TestAttachmentModeKeepsPayloadRaw(t *testing.T) {
	payload := []byte("<a><b>text</b></a>")
	data, err := Encode(Attachment, testID, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, payload) {
		t.Fatalf("attachment payload not raw at tail: %s", data)
	}
	// Attachment envelopes are much smaller than body envelopes for large
	// payloads — the point of the paper's planned improvement.
	big := bytes.Repeat([]byte("<x>&amp;</x>"), 2000)
	bodyData, _ := Encode(Body, testID, big)
	attData, _ := Encode(Attachment, testID, big)
	if len(attData) >= len(bodyData) {
		t.Fatalf("attachment (%d) not smaller than body (%d)", len(attData), len(bodyData))
	}
}

func TestBinarySafePayloadInAttachment(t *testing.T) {
	// Attachment mode must carry any bytes, even invalid XML fragments
	// inside (the depot validates later, not the transport).
	payload := []byte("<r>\x09tab and \xc3\xa9 accents</r>")
	data, err := Encode(Attachment, testID, payload)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Report, payload) {
		t.Fatal("payload mangled")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"<wrong/>",
		`<envelope mode="body"><address>a=1</address></envelope>`,                                             // no report
		`<envelope mode="attachment"><address>a=1</address></envelope>`,                                       // no attachment element
		`<envelope mode="body"><address>not-a-branch</address><report>x</report></envelope>`,                  // bad address
		`<envelope mode="attachment"><address>a=1</address><attachment length="bad"/></envelope>`,             // bad length
		`<envelope mode="attachment"><address>a=1</address><attachment length="100"/></envelope>` + "\nshort", // truncated
		`<envelope mode="body"><address>a=1</address><attachment length="1"/></envelope>x`,                    // wrong element for mode
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("Decode accepted %q", c)
		}
	}
}

func TestRootBranchAllowed(t *testing.T) {
	data, err := Encode(Body, branch.ID{}, []byte("<r/>"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Branch.IsRoot() {
		t.Fatalf("branch = %q", env.Branch)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, useAttachment bool) bool {
		r := rand.New(rand.NewSource(seed))
		payload := []byte("<r>" + randomText(r) + "</r>")
		mode := Body
		if useAttachment {
			mode = Attachment
		}
		data, err := Encode(mode, testID, payload)
		if err != nil {
			return false
		}
		env, err := Decode(data)
		if err != nil {
			return false
		}
		return bytes.Equal(env.Report, payload) && env.Branch.Equal(testID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomText(r *rand.Rand) string {
	const alpha = "abc <>&\"'123\n\t"
	n := r.Intn(200)
	b := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		ch := alpha[r.Intn(len(alpha))]
		switch ch {
		case '<':
			b = append(b, []byte("&lt;")...)
		case '>':
			b = append(b, []byte("&gt;")...)
		case '&':
			b = append(b, []byte("&amp;")...)
		default:
			b = append(b, ch)
		}
	}
	return string(b)
}

func TestModeString(t *testing.T) {
	if Body.String() != "body" || Attachment.String() != "attachment" {
		t.Fatal("mode names wrong")
	}
}

func TestUnknownModeRejected(t *testing.T) {
	if _, err := Encode(Mode(9), testID, []byte("<r/>")); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestAddressPeek(t *testing.T) {
	payload := []byte("<r><v>1</v></r>")
	for _, mode := range []Mode{Body, Attachment} {
		data, err := Encode(mode, testID, payload)
		if err != nil {
			t.Fatal(err)
		}
		id, err := Address(data)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !id.Equal(testID) {
			t.Fatalf("%s: id = %s", mode, id)
		}
	}
}

func TestAddressErrors(t *testing.T) {
	cases := []string{
		"",
		"<wrong/>",
		"<envelope></envelope>", // no address
		"<envelope><address>not!branch</address></envelope>", // bad id
		"<envelope><other/>", // truncated
	}
	for _, c := range cases {
		if _, err := Address([]byte(c)); err == nil {
			t.Errorf("Address accepted %q", c)
		}
	}
}

func TestAddressRootID(t *testing.T) {
	data, err := Encode(Body, branch.ID{}, []byte("<r/>"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := Address(data)
	if err != nil || !id.IsRoot() {
		t.Fatalf("root address: %v %v", id, err)
	}
}
