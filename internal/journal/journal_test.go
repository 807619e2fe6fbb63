package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// collect opens the journal in dir and returns copies of its records.
func collect(t testing.TB, dir string) (*Journal, [][]byte) {
	t.Helper()
	var recs [][]byte
	j, err := Open(dir, func(rec []byte, _ Pos) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, recs
}

func record(i int) []byte { return []byte(fmt.Sprintf("record-%d", i)) }

func sameRecords(t *testing.T, got [][]byte, from, to int) {
	t.Helper()
	if len(got) != to-from {
		t.Fatalf("%d records, want %d", len(got), to-from)
	}
	for i, rec := range got {
		if want := record(from + i); !bytes.Equal(rec, want) {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestJournalAppendReadRotateTrim(t *testing.T) {
	dir := t.TempDir()
	j, recs := collect(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh journal holds %d records", len(recs))
	}
	var at []Pos
	for i := 0; i < 3; i++ {
		p, err := j.Append(record(i))
		if err != nil {
			t.Fatal(err)
		}
		at = append(at, p)
	}
	seq, err := j.Rotate()
	if err != nil || seq != at[0].Seq+1 {
		t.Fatalf("Rotate = %d, %v; want %d", seq, err, at[0].Seq+1)
	}
	if again, err := j.Rotate(); err != nil || again != seq {
		t.Fatalf("Rotate on an empty segment = %d, %v; want %d", again, err, seq)
	}
	for i := 3; i < 5; i++ {
		if _, err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}

	// ReadFrom a record's position reads it and everything after, across
	// the segment boundary, and hands back where each one ends.
	var got [][]byte
	var last Pos
	if err := j.ReadFrom(at[1], func(rec []byte, next Pos) error {
		got = append(got, append([]byte(nil), rec...))
		last = next
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, 1, 5)
	got = got[:0]
	if err := j.ReadFrom(last, func(rec []byte, _ Pos) error { got = append(got, rec); return nil }); err != nil || len(got) != 0 {
		t.Fatalf("reading from the end: %d records, %v", len(got), err)
	}

	if err := j.Trim(seq); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(record(9)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	j, recs = collect(t, dir)
	defer j.Close()
	sameRecords(t, recs, 3, 5)
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := collect(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	whole := len(data)
	// Cut into the last frame, then add bytes a crash could leave.
	data = append(data[:whole-3], 0xde, 0xad)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := collect(t, dir)
	j.Close()
	sameRecords(t, recs, 0, 3)
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(whole-(8+len(record(3)))) {
		t.Fatalf("torn tail not cut at the last whole frame: %v, %v", fi, err)
	}
}

func TestJournalCorruptMidSequence(t *testing.T) {
	dir := t.TempDir()
	j, _ := collect(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j, _ = collect(t, dir) // appends move on to segment 2
	j.Close()
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, func([]byte, Pos) error { return nil }); err == nil || !strings.Contains(err.Error(), segmentName(1)) {
		t.Fatalf("Open over a corrupt earlier segment: %v, want an error naming %s", err, segmentName(1))
	}
}

func TestJournalRewrite(t *testing.T) {
	dir := t.TempDir()
	j, _ := collect(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := j.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	at, err := j.Append(record(5))
	if err != nil {
		t.Fatal(err)
	}
	// The rewrite keeps record 2 and reads 5 onward back out of the
	// journal it is replacing.
	err = j.Rewrite(func(put func([]byte) error) error {
		if err := put(record(2)); err != nil {
			return err
		}
		return j.ReadFrom(at, func(rec []byte, _ Pos) error { return put(rec) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(record(6)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, recs := collect(t, dir)
	defer j.Close()
	want := [][]byte{record(2), record(5), record(6)}
	if len(recs) != len(want) {
		t.Fatalf("%d records after Rewrite, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("the replaced segment is still there: %v", err)
	}
}

// TestJournalConcurrentAppends: appenders racing on one journal, as the
// depot's stores do, each get a whole frame; a reopen reads every record
// once.
func TestJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := collect(t, dir)
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := j.Append(record(w*each + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	j, recs := collect(t, dir)
	defer j.Close()
	seen := make(map[string]bool)
	for _, rec := range recs {
		seen[string(rec)] = true
	}
	if len(recs) != writers*each || len(seen) != writers*each {
		t.Fatalf("%d records (%d distinct) after %d appends", len(recs), len(seen), writers*each)
	}
}

func TestJournalRejectsEmptyRecord(t *testing.T) {
	j, _ := collect(t, t.TempDir())
	defer j.Close()
	if _, err := j.Append(nil); err == nil {
		t.Fatal("Append accepted an empty record, which the scan reads as damage")
	}
}

// TestJournalAppendAllocatesNothing: the frame is assembled in a buffer
// the journal keeps, so a steady stream of appends allocates nothing.
func TestJournalAppendAllocatesNothing(t *testing.T) {
	j, _ := collect(t, t.TempDir())
	defer j.Close()
	rec := bytes.Repeat([]byte("r"), 900)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %.1f times", allocs)
	}
}

// FuzzJournalScan hands Open arbitrary bytes as the final segment. It must
// not panic; it must keep a prefix made only of whole, CRC-valid frames —
// appending the records it read to a fresh journal reproduces exactly the
// bytes it kept — and a second open must find nothing more to cut.
func FuzzJournalScan(f *testing.F) {
	var seed []byte
	for i := 0; i < 3; i++ {
		seed, _ = appendFrame(seed, record(i))
	}
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), 0, 0, 0, 9, 'x'))
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs := collect(t, dir)
		j.Close()
		kept, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("open kept %d bytes that are not a prefix of the segment", len(kept))
		}

		again := t.TempDir()
		j2, _ := collect(t, again)
		for _, rec := range recs {
			if _, err := j2.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		j2.Close()
		rebuilt, err := os.ReadFile(filepath.Join(again, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt, kept) {
			t.Fatalf("the %d records read re-append to %d bytes, not the %d kept", len(recs), len(rebuilt), len(kept))
		}

		j3, recs3 := collect(t, dir)
		j3.Close()
		if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, kept) || len(recs3) != len(recs) {
			t.Fatalf("a second open changed the segment: %d → %d bytes, %d → %d records (%v)", len(kept), len(after), len(recs), len(recs3), err)
		}
	})
}
