package query

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"inca/internal/report"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// The change feed's relay handles each event as bytes (DESIGN.md §5g "The
// relay"): a shard renders the change with renderChange and frames it with
// appendSSE, and the router reads it with FeedStream.Next and frames the
// same bytes again under its composed cursor. These tests hold each hop to
// the encoding/json or line-reader behaviour it replaced, and the whole
// relay to one copy of the payload.

// FuzzChangeEvent: renderChange writes exactly what json.Marshal writes for
// the changeEvent it stands for.
func FuzzChangeEvent(f *testing.F) {
	f.Add("probe=p1,site=s,vo=x", "report", "<r><v>1 &amp; 2</v></r>\n", true)
	f.Add("resource=a,site=sdsc", "manual", "ok", false)
	f.Add("vo=tg", "policy", "", false)
	f.Add("a=\"q\"\\,b=\t\r\n\b\f\x00\x1f\x7f", "report", "<&>", true)
	f.Add("a=\u2028\u2029", "policy", "caf\u00e9 \U0001F600", false)
	f.Add("a=\xff\xfe", "report", "\xe2\x80\xa8\xe2\x80\xa9\xe2\x80", true)
	f.Fuzz(func(t *testing.T, branchID, kind, value string, report bool) {
		ce := changeEvent{Branch: branchID, Kind: kind}
		if report {
			ce.Report = value
		} else {
			ce.Policy = value
		}
		want, err := json.Marshal(ce)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderChange(branchID, kind, report, []byte(value)); !bytes.Equal(got, want) {
			t.Fatalf("renderChange differs from json.Marshal\n got %q\nwant %q", got, want)
		}
	})
}

// benchReports are stored reports of the paper's smallest and largest
// sizes (851 B, 45 527 B).
func benchReports(b testing.TB) [][]byte {
	build := func(pad int) []byte {
		r := report.New("bench.probe", "1.0", "bench.example.org", time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC))
		r.Body = report.Branch("bench", "probe",
			report.Branch("statistic", "sample", report.Leaf("seq", "00000042"), report.Leaf("units", "count")),
			report.Leaf("pad", strings.Repeat("x", pad)))
		data, err := report.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	var out [][]byte
	for _, size := range []int{851, 45527} {
		out = append(out, build(size-len(build(0))))
	}
	return out
}

// BenchmarkRenderChange is a shard's per-change cost with a subscriber
// attached: the JSON body of a stored report.
func BenchmarkRenderChange(b *testing.B) {
	for _, data := range benchReports(b) {
		b.Run(fmt.Sprint(len(data)), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				renderChange("probe=p1,site=s,vo=x", "report", true, data)
			}
		})
	}
}

// oracleNext is FeedStream.Next as it was before the relay read in place
// (PR 23): ReadString per line, each data line copied, joined at the end.
func oracleNext(br *bufio.Reader) (FeedEvent, error) {
	var ev FeedEvent
	var data [][]byte
	sawData := false
	for {
		raw, err := br.ReadString('\n')
		if err != nil {
			return FeedEvent{}, err
		}
		line := strings.TrimRight(raw, "\r\n")
		switch {
		case line == "":
			if ev.Type == "" && !sawData {
				continue // stray separator
			}
			ev.Data = bytes.Join(data, []byte("\n"))
			return ev, nil
		case strings.HasPrefix(line, ":"):
			continue // heartbeat comment
		case strings.HasPrefix(line, "event:"):
			ev.Type = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "id:"):
			ev.Cursor = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "data:"):
			d := line[len("data:"):]
			d = strings.TrimPrefix(d, " ")
			data = append(data, []byte(d))
			sawData = true
		}
	}
}

// FuzzFeedStream: Next reads the events the line reader it replaced read,
// from any bytes — through a 16-byte buffer, so long lines take the path
// that spans reads — and reading back a frame appendSSE wrote gives the
// event it was written from.
func FuzzFeedStream(f *testing.F) {
	f.Add([]byte("event: snapshot\nid: fe-g0\ndata: <cache>\ndata: </cache>\n\n: ping\n\nevent: resume\nid: fe-g0\ndata:\n\n"),
		"change", "fe-g1", []byte(`{"branch":"a=1","kind":"report","report":"\u003cr/\u003e"}`))
	f.Add([]byte("\n\nid:  f1-2.3 \r\nevent:change\r\ndata:a\r\ndata: \r\nretry: 10\r\n\r\nevent: status\n"), "snapshot", "fe-g2", []byte("line one\nline two\n"))
	f.Add([]byte("data:  two spaces\ndata\nevent: \u00a0x\u2028\n\n"), "", "", []byte{})
	f.Add([]byte("event: change\nid: "+strings.Repeat("9", 40)+"\ndata: "+strings.Repeat("<x>", 30)+"\n\nevent: change\ndata: torn"), "error", "x", []byte("\n"))
	f.Fuzz(func(t *testing.T, stream []byte, event, id string, data []byte) {
		oracle := bufio.NewReader(bytes.NewReader(stream))
		fs := &FeedStream{br: bufio.NewReaderSize(bytes.NewReader(stream), 16)}
		for {
			want, werr := oracleNext(oracle)
			got, gerr := fs.Next()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("Next error %v, line reader %v", gerr, werr)
			}
			if werr != nil {
				break
			}
			if got.Type != want.Type || got.Cursor != want.Cursor || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("Next read %q/%q/%q, line reader %q/%q/%q", got.Type, got.Cursor, got.Data, want.Type, want.Cursor, want.Data)
			}
		}

		// A frame reads back as written when its name and cursor are one
		// trimmed line each and no data line ends in CR (the reader takes
		// CRLF endings).
		for _, s := range []string{event, id} {
			if strings.ContainsAny(s, "\r\n") || strings.TrimSpace(s) != s {
				return
			}
		}
		if bytes.Contains(data, []byte("\r\n")) || bytes.HasSuffix(data, []byte("\r")) {
			return
		}
		frame := appendSSE(nil, event, id, data)
		back := &FeedStream{br: bufio.NewReaderSize(bytes.NewReader(frame), 16)}
		ev, err := back.Next()
		if err != nil {
			t.Fatalf("reading back %q: %v", frame, err)
		}
		if ev.Type != event || ev.Cursor != id || !bytes.Equal(ev.Data, data) {
			t.Fatalf("frame %q read back as %q/%q/%q", frame, ev.Type, ev.Cursor, ev.Data)
		}
	})
}

// TestRelayCopiesPayloadOnce is the relay's copy budget: one change through
// every router hop — FeedStream.Next and the fan-in's drain to the written
// frame — allocates at most twice its payload (the one copy Next makes,
// plus the shard's and the composed cursor), and the frame the router
// writes is the one the shard sent, byte for byte, under the composed
// cursor.
func TestRelayCopiesPayloadOnce(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const n, warm = 1000, 10
	const sig = "1a2b"
	report := []byte(strings.Repeat("<value>1.00</value>", 50)) // ~2 KB once escaped
	var stream, want []byte
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("probe=p%04d,site=s%02d,vo=tg", i, i%32)
		change := renderChange(id, "report", true, report)
		stream = appendSSE(stream, "change", fmt.Sprintf("fe-g%d", i+1), change)
		want = appendSSE(want, "change", fmt.Sprintf("f%s-fe-g%d", sig, i+1), change)
	}
	payload := len(renderChange("probe=p0000,site=s00,vo=tg", "report", true, report))

	fi := &fanIn{sig: sig, cursors: make([]string, 1)}
	fs := &FeedStream{br: bufio.NewReader(bytes.NewReader(stream))}
	var written bytes.Buffer
	relay := func() {
		ev, err := fs.Next()
		if err != nil {
			t.Fatal(err)
		}
		written.Reset()
		fi.drain(&written, shardEvent{0, ev})
		frame := written.Bytes()
		if !bytes.HasPrefix(want, frame) || len(frame) == 0 {
			t.Fatalf("relayed frame %.120q is not the one sent, %.120q", frame, want)
		}
		want = want[len(frame):]
	}
	for i := 0; i < warm; i++ {
		relay()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < n; i++ {
		relay()
	}
	runtime.ReadMemStats(&after)
	perChange := float64(after.TotalAlloc-before.TotalAlloc) / (n - warm)
	t.Logf("%.0f bytes allocated per relayed change of %d bytes (%.2fx)", perChange, payload, perChange/float64(payload))
	if perChange > 2*float64(payload) {
		t.Fatalf("relaying a %d-byte change allocates %.0f bytes, more than twice the payload", payload, perChange)
	}
}
