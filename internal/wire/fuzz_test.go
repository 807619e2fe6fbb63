package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame returns m as WriteMessage frames it.
func frame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeeds are the frames both readers start from: a signed message, one
// with every field empty, and one torn mid-part (a length prefix promising
// nine bytes with one present, what a crash mid-append leaves in the spool
// file).
func fuzzSeeds(tb testing.TB) [][]byte {
	signed := &Message{Branch: "probe=p1,site=s,vo=x", Hostname: "login1", Report: []byte("<r><v>1</v></r>")}
	SignMessage(signed, []byte("secret"))
	return [][]byte{
		frame(tb, signed),
		frame(tb, &Message{}),
		{0, 0, 0, 9, 'x'},
	}
}

// FuzzReadMessage feeds the frame reader — the server's bare-message branch
// and the spool's recovery scan — arbitrary bytes. Whatever it accepts must
// be exactly the prefix WriteMessage produces from the result, so a frame
// means the same thing on both sides of the codec.
func FuzzReadMessage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := ReadMessage(r)
		if err != nil {
			return
		}
		if out := frame(t, m); !bytes.Equal(out, data[:len(data)-r.Len()]) {
			t.Fatalf("accepted frame re-serializes to different bytes (%d consumed, %d out)", len(data)-r.Len(), len(out))
		}
	})
}

// FuzzReadBatch does the same for the batch reader: an accepted batch holds
// between 1 and MaxBatch messages and re-serializes to the bytes consumed.
func FuzzReadBatch(f *testing.F) {
	batchOf := func(count uint32, frames ...[]byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, batchMagic)
		out = binary.BigEndian.AppendUint32(out, count)
		return append(out, bytes.Join(frames, nil)...)
	}
	seeds := fuzzSeeds(f)
	f.Add(batchOf(2, seeds[0], seeds[1]))
	f.Add(batchOf(2, seeds[0], seeds[2])) // torn in its second message
	f.Add(batchOf(MaxBatch+1, seeds[0]))  // count past the limit
	f.Add(batchOf(0))                     // empty batch
	f.Add(append([]byte{0}, seeds[0]...)) // not a batch frame
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		msgs, err := ReadBatch(r)
		if err != nil {
			return
		}
		if len(msgs) == 0 || len(msgs) > MaxBatch {
			t.Fatalf("accepted a batch of %d messages", len(msgs))
		}
		var out bytes.Buffer
		if err := WriteBatch(&out, msgs); err != nil {
			t.Fatalf("accepted batch does not write back: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:len(data)-r.Len()]) {
			t.Fatalf("accepted batch re-serializes to different bytes (%d consumed, %d out)", len(data)-r.Len(), out.Len())
		}
	})
}
