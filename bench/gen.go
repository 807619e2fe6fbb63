package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
	"inca/internal/wire"
)

// The generator owns every input the server sees. Reports come from one
// marshalled template of exactly reportSize bytes with three fixed-width
// fields patched in place per report:
//
//   - <gmt>: the branch's own clock, one policy step later on every report,
//     so the archive applies every sample (an RRD drops a sample that is not
//     strictly newer than the last);
//   - <seq>: the report's per-branch sequence number, which is also the
//     archived value, so a fetched archive row says which report wrote it;
//   - <sent>: the wall-clock send stamp in Unix nanoseconds, from which the
//     subscriber computes how old a report is when its event arrives.
//
// Patching instead of re-marshalling keeps the generator's cost per report
// far below the server's: on this host both share two cores.

const (
	smallReport = 851   // the paper's smallest premade report (§5.2.2)
	largeReport = 45527 // the paper's largest; in-process micro-trace only

	policyName = "bench-value"
	// valuePath locates the archived value, leaf first.
	valuePath  = "seq,statistic=sample,bench=probe"
	policyStep = time.Minute

	seqWidth  = 8
	sentWidth = 19
)

// gmtBase is every branch's clock origin, aligned to policyStep so sample k
// lands exactly on the boundary of archive row k.
var gmtBase = time.Date(2004, 7, 7, 0, 0, 0, 0, time.UTC)

// template is a marshalled report with the offsets of its patch fields.
type template struct {
	data                    []byte
	gmtOff, seqOff, sentOff int
}

func newTemplate(size int) (*template, error) {
	build := func(pad int) ([]byte, error) {
		r := report.New("bench.probe", "1.0", "bench.example.org", gmtBase)
		body := report.Branch("bench", "probe",
			report.Branch("statistic", "sample",
				report.Leaf("seq", "00000000"),
				report.Leaf("units", "count")),
			report.Leaf("sent", "0000000000000000000"))
		if pad > 0 {
			body.Add(report.Leaf("pad", string(bytes.Repeat([]byte("x"), pad))))
		}
		r.Body = body
		return report.Marshal(r)
	}
	one, err := build(1)
	if err != nil {
		return nil, err
	}
	pad := size - len(one) + 1
	if pad < 1 {
		return nil, fmt.Errorf("bench: report size %d below the template's minimum %d", size, len(one))
	}
	data, err := build(pad)
	if err != nil {
		return nil, err
	}
	if len(data) != size {
		return nil, fmt.Errorf("bench: template is %d bytes, want %d", len(data), size)
	}
	t := &template{data: data}
	for _, f := range []struct {
		marker string
		off    *int
	}{{"<gmt>", &t.gmtOff}, {"<seq>", &t.seqOff}, {"<sent>", &t.sentOff}} {
		i := bytes.Index(data, []byte(f.marker))
		if i < 0 {
			return nil, fmt.Errorf("bench: template has no %s", f.marker)
		}
		*f.off = i + len(f.marker)
	}
	return t, nil
}

// fill writes report number seq of a branch into dst (len(t.data) bytes).
func (t *template) fill(dst []byte, seq int, sent time.Time) {
	copy(dst, t.data)
	gmtBase.Add(time.Duration(seq)*policyStep).AppendFormat(dst[t.gmtOff:t.gmtOff], time.RFC3339)
	putDigits(dst[t.seqOff:t.seqOff+seqWidth], uint64(seq))
	putDigits(dst[t.sentOff:t.sentOff+sentWidth], uint64(sent.UnixNano()))
}

func putDigits(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

var (
	sentMarker = []byte("<sent>")
	// A change event carries the report as a JSON string, in which the
	// server's encoder escapes '<' and '>'; this is the marker as it does.
	sentMarkerJSON = bytes.Trim(mustJSON(string(sentMarker)), `"`)
	reportKind     = []byte(`"kind":"report"`)
)

func mustJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain values are passed
	}
	return data
}

// sentStamp reads the send stamp back out of a report the server returned.
func sentStamp(reportXML []byte) (time.Time, bool) {
	return stampAfter(reportXML, sentMarker)
}

// eventSentStamp reads the send stamp out of a change event's body without
// decoding it: the subscriber receives every report the writers send, and a
// full JSON decode of each would make the generator compete with the server
// it is measuring.
func eventSentStamp(event []byte) (time.Time, bool) {
	return stampAfter(event, sentMarkerJSON)
}

func stampAfter(data, marker []byte) (time.Time, bool) {
	i := bytes.Index(data, marker)
	if i < 0 || len(data) < i+len(marker)+sentWidth {
		return time.Time{}, false
	}
	ns, err := strconv.ParseInt(string(data[i+len(marker):][:sentWidth]), 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// workingSet is the branch population of a workload: sites × probes full
// identifiers under one VO, plus the site-level prefixes subtree reads use
// (vo + site, the federation ring's affinity key).
type workingSet struct {
	sites, probes int
	ids           []string // full identifier of branch s*probes+p
	prefixes      []string // subtree prefix of site s
}

func newWorkingSet(sites, probes int) *workingSet {
	ws := &workingSet{sites: sites, probes: probes}
	for s := 0; s < sites; s++ {
		site := branch.ID{}.Child("vo", "bench").Child("site", fmt.Sprintf("s%02d", s))
		ws.prefixes = append(ws.prefixes, site.String())
		for p := 0; p < probes; p++ {
			ws.ids = append(ws.ids, site.Child("probe", fmt.Sprintf("p%02d", p)).String())
		}
	}
	return ws
}

// Reader op classes.
const (
	opSubtree    = iota // GET /reports?branch=<vo,site>: one site's reports
	opRevalidate        // conditional whole GET /cache with the last ETag
)

// readCycle is the dashboard's fixed read mix: 12 subtree reads then 4
// revalidations.
const (
	cycleSubtree    = 12
	cycleRevalidate = 4
)

// opStream is one client's seeded operation sequence. The sequence depends
// on the seed and the client index only, never on timing, so two runs with
// one seed offer the server identical inputs in identical per-client order.
type opStream struct {
	rng *rand.Rand
	ws  *workingSet
	n   int
	// owned lists the branch indexes this writer may touch. Each branch has
	// exactly one writer, so its reports reach the server in sequence order
	// down one connection.
	owned []int
}

func newOpStream(seed int64, client, clients int, ws *workingSet) *opStream {
	s := &opStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), ws: ws}
	for b := client; b < len(ws.ids); b += clients {
		s.owned = append(s.owned, b)
	}
	return s
}

// nextBatch picks the distinct branches of the writer's next batch.
func (s *opStream) nextBatch(dst []int) {
	for i := range dst {
	pick:
		for {
			dst[i] = s.owned[s.rng.Intn(len(s.owned))]
			for _, prev := range dst[:i] {
				if prev == dst[i] {
					continue pick
				}
			}
			break
		}
	}
}

// nextRead returns the reader's next op class and, for a subtree read, the
// site it reads.
func (s *opStream) nextRead() (class, site int) {
	pos := s.n % (cycleSubtree + cycleRevalidate)
	s.n++
	if pos < cycleSubtree {
		return opSubtree, s.rng.Intn(s.ws.sites)
	}
	return opRevalidate, 0
}

// streamHash folds the first n operations of a workload's writer and reader
// streams into one number: the determinism check compares it across seeds.
func streamHash(seed int64, ws *workingSet, writers, batch, n int) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	for w := 0; w < writers; w++ {
		s := newOpStream(seed, w, writers, ws)
		picks := make([]int, batch)
		for i := 0; i < n; i++ {
			s.nextBatch(picks)
			for _, b := range picks {
				put(b)
			}
		}
	}
	r := newOpStream(seed, writers, writers+1, ws)
	for i := 0; i < n; i++ {
		class, site := r.nextRead()
		put(class)
		put(site)
	}
	return h.Sum64()
}

// batchBuilder turns branch picks into wire messages, reusing its buffers.
type batchBuilder struct {
	t    *template
	ws   *workingSet
	seqs []int // next sequence number per branch (shared: one writer per branch)
	msgs []*wire.Message
	bufs [][]byte
}

func newBatchBuilder(t *template, ws *workingSet, seqs []int, batch int) *batchBuilder {
	b := &batchBuilder{t: t, ws: ws, seqs: seqs}
	for i := 0; i < batch; i++ {
		b.bufs = append(b.bufs, make([]byte, len(t.data)))
		b.msgs = append(b.msgs, &wire.Message{Hostname: "bench"})
	}
	return b
}

// build fills the batch for picks, stamping every report with now.
func (b *batchBuilder) build(picks []int, now time.Time) []*wire.Message {
	for i, br := range picks {
		b.seqs[br]++
		b.t.fill(b.bufs[i], b.seqs[br], now)
		b.msgs[i].Branch = b.ws.ids[br]
		b.msgs[i].Report = b.bufs[i]
	}
	return b.msgs[:len(picks)]
}
