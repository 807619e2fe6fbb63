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

	"inca/internal/branch"
	"inca/internal/feed"
	"inca/internal/report"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// The change feed's relay handles each event as bytes (DESIGN.md §5g "The
// relay"): a shard renders the change with renderChange and frames it with
// appendSSE, the router reads it with FeedStream.Next, routes it with
// scanChange and frames the same bytes again. These tests hold each hop to
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

// BenchmarkUpstreamEvent is the router's per-change cost in the relay:
// routing the change a shard rendered for a stored report.
func BenchmarkUpstreamEvent(b *testing.B) {
	for _, data := range benchReports(b) {
		ev := FeedEvent{Type: "change", Data: renderChange("probe=p1,site=s,vo=x", "report", true, data)}
		b.Run(fmt.Sprint(len(data)), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := upstreamEvent(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzUpstreamEvent: whatever scanChange accepts, json.Unmarshal accepts
// too and reads the same three fields from; and it accepts every change a
// shard can send, which is json.Marshal of a changeEvent.
func FuzzUpstreamEvent(f *testing.F) {
	for _, seed := range []string{
		`{"branch":"probe=p1,site=s,vo=x","kind":"report","report":"\u003cr\u003e1\u003c/r\u003e"}`,
		`{"branch":"vo=tg","kind":"policy","policy":"avail"}`,
		`{"branch":"resource=a,site=sdsc","kind":"manual","policy":"p|q"}`,
		` { "kind" : "report" ,	"branch":"a=1" }` + "\r\n",
		`{}`,
		`{"BRANCH":"a=1","Kind":"report","branch":"b=2"}`,
		`{"\u0062ranch":"a=\u0031","kind":"re\u0070ort"}`,
		`{"\u212aind":"policy","ſ":"x","İnd":"y","policy":"\ud83d\ude00\u2028"}`,
		"{\"\xe2\x84\xaaind\":\"policy\",\"branch\":\"a=\xff\"}",
		`{"branch":"a=1","kind":"report"}x`,
		`{"branch":"a=1","kind":"report",}`,
		`{"branch":"a=1","x":1}`,
		`{"branch":null}`,
		`{"branch":"a\x=1"}`,
		`{"branch":"a\u12G4"}`,
		"{\"branch\":\"a\x01\"}",
		`{"branch":"a=1"`,
		`["branch"]`,
		``,
	} {
		f.Add([]byte(seed), "probe=p1,site=s,vo=x", "report", "<v>\u2028</v>")
	}
	f.Fuzz(func(t *testing.T, data []byte, branchID, kind, value string) {
		if fc, err := scanChange(data); err == nil {
			want, err := unmarshalRouting(data)
			if err != nil {
				t.Fatalf("scanChange accepted %q, json.Unmarshal refuses it: %v", data, err)
			}
			if got := fc.strings(); got != want {
				t.Fatalf("scanChange read %q from %q, json.Unmarshal %q", got, data, want)
			}
		}
		for _, ce := range []changeEvent{
			{Branch: branchID, Kind: kind, Report: value},
			{Branch: branchID, Kind: kind, Policy: value},
		} {
			data, err := json.Marshal(ce)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := scanChange(data)
			if err != nil {
				t.Fatalf("scanChange refuses json.Marshal output %q: %v", data, err)
			}
			want, err := unmarshalRouting(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := fc.strings(); got != want {
				t.Fatalf("scanChange read %q from %q, json.Unmarshal %q", got, data, want)
			}
		}
	})
}

// unmarshalRouting is what json.Unmarshal reads of the three routing
// fields: branch, kind, policy.
func unmarshalRouting(data []byte) ([3]string, error) {
	var fc struct {
		Branch string `json:"branch"`
		Kind   string `json:"kind"`
		Policy string `json:"policy"`
	}
	err := json.Unmarshal(data, &fc)
	return [3]string{fc.Branch, fc.Kind, fc.Policy}, err
}

func (fc changeRouting) strings() [3]string {
	return [3]string{string(fc.branch), string(fc.kind), string(fc.policy)}
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
// every router hop — Next, upstreamEvent, PublishExternal, Drain and the
// frame — allocates at most twice its payload (the one copy Next makes,
// plus the cursor, the identifier and the queue entry), and the frame the
// router writes is the one the shard sent, byte for byte.
func TestRelayCopiesPayloadOnce(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const n, warm = 1000, 10
	report := []byte(strings.Repeat("<value>1.00</value>", 50)) // ~2 KB once escaped
	var stream []byte
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("probe=p%04d,site=s%02d,vo=tg", i, i%32)
		stream = appendSSE(stream, "change", fmt.Sprintf("f1-g%d", i+1), renderChange(id, "report", true, report))
	}
	payload := len(renderChange("probe=p0000,site=s00,vo=tg", "report", true, report))

	hub := feed.NewHub(feed.Options{})
	defer hub.Close()
	sub, _, _ := hub.Subscribe(branch.ID{}, "")
	defer sub.Close()
	fs := &FeedStream{br: bufio.NewReader(bytes.NewReader(stream))}
	sent := stream
	var frames []byte
	relay := func() {
		ev, err := fs.Next()
		if err != nil {
			t.Fatal(err)
		}
		fe, err := upstreamEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		fe.Cursor = ev.Cursor
		hub.PublishExternal(fe)
		events, _ := sub.Drain()
		frames = frames[:0]
		for _, e := range events {
			frames = appendSSE(frames, sseEventName(e.Kind), e.Cursor, e.Data)
		}
		if !bytes.HasPrefix(sent, frames) || len(frames) == 0 {
			t.Fatalf("relayed frame %.120q is not the one sent, %.120q", frames, sent)
		}
		sent = sent[len(frames):]
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
