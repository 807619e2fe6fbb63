package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/metrics"
	"inca/internal/query"
	"inca/internal/report"
	"inca/internal/wire"
)

func TestStreamDeterminism(t *testing.T) {
	ws := newWorkingSet(sitesFull, probesFull)
	a := streamHash(7, ws, 2, batchSize, 500)
	if b := streamHash(7, ws, 2, batchSize, 500); a != b {
		t.Fatalf("same seed gave op stream hashes %x and %x", a, b)
	}
	if c := streamHash(8, ws, 2, batchSize, 500); a == c {
		t.Fatalf("seeds 7 and 8 gave the same op stream hash %x", a)
	}
}

// The shards' addresses name them on the ring: whatever free ports a run
// draws, the ring they give must divide the sites evenly.
func TestShardAddressesSplitTheSitesEvenly(t *testing.T) {
	ws := newWorkingSet(sitesFull, probesFull)
	for i := 0; i < 3; i++ {
		addrs, err := evenShardAddrs(ws)
		if err != nil {
			t.Fatal(err)
		}
		ring := federation.NewRing(addrs, federation.RingOptions{})
		owned := map[string]int{}
		for _, prefix := range ws.prefixes {
			owned[ring.Owner(branch.MustParse(prefix))]++
		}
		if owned[addrs[0]] != sitesFull/2 || owned[addrs[1]] != sitesFull/2 {
			t.Errorf("shards %v own %v of %d sites", addrs, owned, sitesFull)
		}
	}
}

func TestBatchesTouchOwnDistinctBranches(t *testing.T) {
	ws := newWorkingSet(4, 8)
	for client := 0; client < 2; client++ {
		s := newOpStream(3, client, 2, ws)
		picks := make([]int, batchSize)
		for i := 0; i < 200; i++ {
			s.nextBatch(picks)
			seen := map[int]bool{}
			for _, b := range picks {
				if b%2 != client {
					t.Fatalf("writer %d picked branch %d, owned by the other writer", client, b)
				}
				if seen[b] {
					t.Fatalf("batch %v repeats branch %d", picks, b)
				}
				seen[b] = true
			}
		}
	}
}

func TestTemplate(t *testing.T) {
	for _, size := range []int{smallReport, largeReport} {
		tpl, err := newTemplate(size)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		sent := time.Unix(1790000000, 123456789)
		tpl.fill(buf, 42, sent)
		if len(buf) != size {
			t.Fatalf("report is %d bytes, want %d", len(buf), size)
		}
		if _, err := report.Parse(buf); err != nil {
			t.Fatalf("size %d: filled template does not parse: %v", size, err)
		}
		ex, err := report.ExtractValues(buf, []report.Path{report.MustCompilePath(valuePath)})
		if err != nil || !ex.Found[0] || ex.Values[0] != 42 {
			t.Fatalf("size %d: extracted %v (found %v, err %v), want 42", size, ex.Values, ex.Found, err)
		}
		if want := gmtBase.Add(42 * policyStep); !ex.GMT.Equal(want) {
			t.Fatalf("size %d: gmt %v, want %v", size, ex.GMT, want)
		}
		if got, ok := sentStamp(buf); !ok || !got.Equal(sent) {
			t.Fatalf("size %d: send stamp %v (ok %v), want %v", size, got, ok, sent)
		}
		// The feed carries the report as a JSON string; the stamp must be
		// readable from the undecoded event too.
		event, err := json.Marshal(query.FeedChange{Branch: "vo=bench", Kind: "report", Report: string(buf)})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := eventSentStamp(event); !ok || !got.Equal(sent) || !bytes.Contains(event, reportKind) {
			t.Fatalf("size %d: send stamp %v (ok %v) from the raw event, want %v", size, got, ok, sent)
		}
	}
	if _, err := newTemplate(100); err == nil {
		t.Fatal("a 100-byte template was accepted")
	}
}

// The percentile rule: report the highest percentile that still has at
// least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n           int
		want, gives float64
	}{
		{19, 50, 0},   // not even a median
		{20, 50, 50},  // ten beyond the median exactly
		{100, 95, 90}, // p95 would leave five beyond
		{199, 95, 100 * (1 - 10.0/199)},
		{200, 95, 95},  // ten beyond p95 exactly
		{1000, 95, 95}, // never higher than asked
		{1000, 99, 99},
		{999, 99, 100 * (1 - 10.0/999)},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.gives {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.gives)
		}
	}
}

// A whole-window percentile is over every sample: a stall in a fifth of the
// operations must show in the tail.
func TestPercentileMS(t *testing.T) {
	var samples []sample
	for i := 0; i < 1000; i++ {
		d := 2 * time.Millisecond
		if i%5 == 0 {
			d = 50 * time.Millisecond
		}
		samples = append(samples, sample{took: d})
	}
	if ms, used := percentileMS(samples, 50); ms != 2 || used != 50 {
		t.Errorf("p50 = %v ms at p%v, want 2 ms at p50", ms, used)
	}
	if ms, used := percentileMS(samples, 95); ms != 50 || used != 95 {
		t.Errorf("p95 = %v ms at p%v, want the stalled 50 ms at p95", ms, used)
	}
	// 100 samples support p90 at most, 15 not even a median.
	if _, used := percentileMS(samples[:100], 95); used != 90 {
		t.Errorf("100 samples: used p%v, want p90", used)
	}
	if _, used := percentileMS(samples[:15], 95); used != 50 {
		t.Errorf("15 samples: used p%v, want the median", used)
	}
	if ms, used := percentileMS(nil, 50); ms != 0 || used != 0 {
		t.Errorf("no samples: got %v ms at p%v, want zeros", ms, used)
	}
}

// The end-to-end figures are their median second's. An episode of a slow
// host that covers three seconds of ten must not move them; a slowdown that
// covers six must; and a second in which nothing completes is a second at
// rate zero, not a second left out.
func TestMedianSecond(t *testing.T) {
	window := 10*time.Second + 300*time.Millisecond
	build := func(slowSeconds int) (ack []sample, cpu []cpuPoint) {
		cpu = []cpuPoint{{0, 0}}
		for sec := 0; sec < 10; sec++ {
			ops, took, burn := 100, 2*time.Millisecond, 0.5
			if sec < slowSeconds {
				ops, took, burn = 50, 50*time.Millisecond, 1.0
			}
			for i := 0; i < ops; i++ {
				at := time.Duration(sec)*time.Second + time.Duration(i+1)*time.Second/time.Duration(ops+1)
				ack = append(ack, sample{at: at, took: took, n: 8})
			}
			cpu = append(cpu, cpuPoint{time.Duration(sec+1) * time.Second, cpu[sec].cpu + burn})
		}
		// The last, partial second of the window is left out.
		ack = append(ack, sample{at: 10*time.Second + 100*time.Millisecond, took: time.Second, n: 8})
		return ack, cpu
	}
	for _, c := range []struct {
		slow              int
		p50, rate, perKop float64
	}{
		{0, 2, 800, 0.5 / 0.8},
		{3, 2, 800, 0.5 / 0.8},
		{6, 50, 400, 1.0 / 0.4},
	} {
		ack, cpu := build(c.slow)
		if got := medianSecondP50MS(ack, window, nil); got != c.p50 {
			t.Errorf("%d slow seconds: p50 %v ms, want %v", c.slow, got, c.p50)
		}
		if got := medianSecondRate(ack, window, nil); got != c.rate {
			t.Errorf("%d slow seconds: rate %v, want %v", c.slow, got, c.rate)
		}
		if got := medianCPUPerKop(cpu, ack, nil); math.Abs(got-c.perKop) > 1e-9 {
			t.Errorf("%d slow seconds: %v CPU s per 1000, want %v", c.slow, got, c.perKop)
		}
	}
	// Work in four seconds of ten only: the median second is an idle one.
	var sparse []sample
	for sec := 0; sec < 4; sec++ {
		sparse = append(sparse, sample{at: time.Duration(sec)*time.Second + time.Millisecond, took: time.Millisecond, n: 8})
	}
	if got := medianSecondRate(sparse, window, nil); got != 0 {
		t.Errorf("work in 4 seconds of 10: median second's rate %v, want 0", got)
	}
	if got := medianSecondP50MS(sparse, window, nil); got != 1 {
		t.Errorf("work in 4 seconds of 10: p50 %v ms over the seconds that have samples, want 1", got)
	}
	// A window shorter than a second is one slice, scaled to a second.
	if got := medianSecondRate(sparse[:1], 500*time.Millisecond, nil); got != 16 {
		t.Errorf("half-second window: rate %v, want 16", got)
	}
}

// A second's host factor is the lower quartile of its probes over the
// reference, so one probe that was scheduled out does not count; a second
// without probes gets the run's median factor; and a figure of a second in
// which the host was half as fast is halved (a rate doubled).
func TestHostFactors(t *testing.T) {
	window := 3*time.Second + 200*time.Millisecond
	var probes []sample
	for i := 0; i < 8; i++ {
		took := refDecode
		if i == 7 {
			took = 40 * refDecode // scheduled out mid-way
		}
		probes = append(probes, sample{at: time.Duration(i) * 100 * time.Millisecond, took: took})
		probes = append(probes, sample{at: 2*time.Second + time.Duration(i)*100*time.Millisecond, took: 2 * refDecode})
	}
	host := hostFactors(probes, window)
	if want := []float64{1, 1.5, 2}; !reflect.DeepEqual(host, want) {
		t.Fatalf("host factors %v, want %v", host, want)
	}
	ops := []sample{
		{at: 500 * time.Millisecond, took: 2 * time.Millisecond, n: 8},
		{at: 2500 * time.Millisecond, took: 4 * time.Millisecond, n: 8},
		{at: 2600 * time.Millisecond, took: 4 * time.Millisecond, n: 8},
	}
	if got := medianSecondP50MS(ops, window, host); got != 2 {
		t.Errorf("corrected p50 %v ms, want 2 in the fast second and in the slow one", got)
	}
	if got := medianSecondP50MS(ops, window, nil); got != 3 {
		t.Errorf("p50 as measured %v ms, want 3", got)
	}
	if got := medianSecondRate(ops[1:], window, host); got != 0 {
		t.Errorf("corrected rate %v with work in one second of three, want 0", got)
	}
	if got := medianSecondRate(ops, window, host); got != 8 {
		t.Errorf("corrected rate %v, want 8 (8, 0 and 2 x 16)", got)
	}
	if got := hostFactors(nil, window); !reflect.DeepEqual(got, []float64{1, 1, 1}) {
		t.Errorf("no probes: factors %v, want all 1", got)
	}
}

// Open-loop accounting: due times come from the schedule alone, so a burst
// that overruns its period makes the next one late by the overrun instead
// of shifting the schedule.
func TestPacerLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, period: time.Second}
	first, second, third := p.next(), p.next(), p.next()
	if !first.Equal(start) || !second.Equal(start.Add(time.Second)) || !third.Equal(start.Add(2*time.Second)) {
		t.Fatalf("due times %v %v %v are not start + k*period", first, second, third)
	}
	// The first burst took 1.3 s, so the second could only begin 0.3 s late;
	// the third, back on time, is not late at all.
	if got := lateness(second, start.Add(1300*time.Millisecond)); got != 300*time.Millisecond {
		t.Errorf("lateness after an overrun = %v, want 300ms", got)
	}
	if got := lateness(third, third); got != 0 {
		t.Errorf("lateness on time = %v, want 0", got)
	}
	if got := lateness(third, third.Add(-time.Millisecond)); got != 0 {
		t.Errorf("lateness when early = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	b := tr.buf()
	root := b.start("root", 0, 1)
	child := b.start("child", root, 1)
	time.Sleep(2 * time.Millisecond)
	b.end(child)
	time.Sleep(time.Millisecond)
	b.end(root)
	tr.on.Store(false)
	if id := b.start("off", 0, 2); id != 0 {
		t.Fatalf("span recorded while tracing is off")
	}
	totals := map[string]spanTotals{}
	for _, s := range selfTimes(tr.all()) {
		totals[s.Name] = s
	}
	r, c := totals["root"], totals["child"]
	if r.Count != 1 || c.Count != 1 || len(totals) != 2 {
		t.Fatalf("span totals %+v", totals)
	}
	if r.Self != r.Total-c.Total || c.Self != c.Total {
		t.Errorf("self times: root %v of %v, child %v of %v", r.Self, r.Total, c.Self, c.Total)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is what the driver reads; spec.go is what the program
// prints. They must say the same, inside the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var onDisk, fromSpec interface{}
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &fromSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromSpec) {
		t.Fatalf("BENCHMARK.json differs from spec.go, which gives:\n%s", benchmarkJSON())
	}

	names := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		unique(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range endToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		unique(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if endToEnd[0] != (metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: endToEnd[0].Bound}) {
		t.Errorf("setup_s is %+v", endToEnd[0])
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d", defaultSeconds)
	}
}

// inProcessSpawn stands a depot, controller, wire listener and querying
// interface up inside the test binary, so the harness runs end to end
// without building or spawning inca-server.
func inProcessSpawn(t *testing.T) func(*workload, string) (*deployment, error) {
	return func(*workload, string) (*deployment, error) {
		start := time.Now()
		reg := metrics.NewRegistry()
		d := depot.NewWithOptions(depot.NewIndexedCache(), depot.Options{Metrics: reg})
		ctl := controller.New(d, controller.Options{Mode: envelope.Body, Metrics: reg})
		srv, err := wire.ServeOptions("127.0.0.1:0", ctl.Handle, wire.ServerOptions{Metrics: reg})
		if err != nil {
			return nil, err
		}
		qsrv := query.NewServerMetrics(d, reg)
		qfeed := query.NewFeed(d, query.FeedOptions{Metrics: reg})
		qsrv.Feed = qfeed
		web := httptest.NewServer(qsrv.Handler())
		p := &serverProc{
			pid: os.Getpid(), wireAddr: srv.Addr(), httpAddr: web.Listener.Addr().String(),
			stop: func() {
				web.CloseClientConnections()
				web.Close()
				srv.Close()
				qfeed.Close()
			},
		}
		t.Cleanup(p.kill)
		return &deployment{depots: []*serverProc{p}, front: p, started: time.Since(start)}, nil
	}
}

// TestHarnessSmoke drives the whole run loop (set-ups, load, drain, output
// checks, read pass, metric assembly) against in-process servers: a
// fixed-work workload that takes its read figures from the read pass, and a
// traced run of the fixed-time dashboard mix. The restart of a
// disk deployment needs real processes and is left to the benchmark itself.
func TestHarnessSmoke(t *testing.T) {
	small, err := newTemplate(smallReport)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{ps: &procSet{}, runDir: t.TempDir(), warmup: 50 * time.Millisecond, readWarmup: 50 * time.Millisecond, readFor: time.Second, microScale: 100, small: small,
		httpTr: &http.Transport{MaxIdleConnsPerHost: 8}}
	e.spawn = inProcessSpawn(t)
	timed := &workload{Name: "timed", sites: 4, probes: 8, mix: findWorkload("dashboard_read").mix}
	fixed := &workload{Name: "fixed", sites: 4, probes: 8, mix: mix{writers: 2, fixedPerSecond: 4000}}
	for _, c := range []struct {
		w      *workload
		traced bool
		specs  []metricSpec
	}{
		{fixed, false, endToEnd},
		{timed, true, perLayer},
	} {
		res, err := e.runWorkload(c.w, 11, 1, c.traced)
		if err != nil {
			t.Fatalf("%s: %v", c.w.Name, err)
		}
		if res.failed != 0 || res.attempted == 0 || len(res.problems) > 0 {
			t.Errorf("%s: %d of %d operations failed: %v", c.w.Name, res.failed, res.attempted, res.problems)
		}
		for _, m := range c.specs {
			v, ok := res.metrics[m.Name]
			// Every end-to-end metric is positive on every workload; a
			// per-layer count may well be zero.
			if !ok || v.Unit != m.Unit || (!c.traced && !(v.Value > 0)) {
				t.Errorf("%s: metric %s = %+v (present %v), want a value in %s", c.w.Name, m.Name, v, ok, m.Unit)
			}
		}
		if c.traced && len(res.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", c.w.Name)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(res.line()), &line); err != nil || len(line.Metrics) != len(c.specs) {
			t.Errorf("%s: result line has %d metrics (err %v), want %d", c.w.Name, len(line.Metrics), err, len(c.specs))
		}
	}
}
