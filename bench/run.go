package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/federation"
	"inca/internal/loadgen"
	"inca/internal/query"
	"inca/internal/rrd"
)

const (
	// fixedWarmShare is the unrecorded part of a fixed-work workload, as a
	// share of the recorded part.
	fixedWarmShare = 8
	// drainTimeout bounds the wait for routed reports to reach their shards.
	drainTimeout = 60 * time.Second
	// setups is how many times a run sets the deployment up: the driver's
	// contract asks for several and their median. The load runs against the
	// last.
	setups = 5
)

// env is what every run of one benchmark process shares.
type env struct {
	ps     *procSet
	runDir string // this process's own directory under workDir
	// spawn starts a workload's deployment, warmup is the unrecorded load
	// before a timed window (whole seconds, the paced writer's period),
	// readWarmup and readFor are the unrecorded and the recorded part of the
	// read pass, and microScale divides the micro-trace's iteration counts:
	// the in-process smoke test replaces them all.
	spawn      func(w *workload, dataDir string) (*deployment, error)
	warmup     time.Duration
	readWarmup time.Duration
	readFor    time.Duration
	microScale int
	build      time.Duration
	small      *template
	httpTr     *http.Transport
	layers     map[string]metricValue // the micro-trace, run once per process
}

func newEnv() (*env, error) {
	bin, build, err := buildServer()
	if err != nil {
		return nil, err
	}
	small, err := newTemplate(smallReport)
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		ps: &procSet{bin: bin}, runDir: runDir, warmup: 3 * time.Second, readWarmup: time.Second, readFor: 8 * time.Second,
		microScale: 1, build: build, small: small,
		httpTr: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	e.spawn = e.spawnServers
	return e, nil
}

func (e *env) client(base string, timeout time.Duration) *query.Client {
	qc := query.NewClient("http://" + base)
	qc.HTTP = &http.Client{Transport: e.httpTr, Timeout: timeout}
	return qc
}

// deployment is the set of server processes of one workload.
type deployment struct {
	depots  []*serverProc // processes hosting a depot: the server, or the shards
	front   *serverProc   // what clients talk to: the server, or the router
	dataDir string
	started time.Duration // exec of the first process to the last listening banner
}

func (d *deployment) procs() []*serverProc {
	if d.front == d.depots[0] {
		return d.depots
	}
	return append(append([]*serverProc(nil), d.depots...), d.front)
}

func (d *deployment) kill() {
	for _, p := range d.procs() {
		p.kill()
	}
}

// evenShardAddrs returns two free loopback addresses for the shards' wire
// listeners. A shard's wire address is its name on the consistent-hash ring,
// so the ports decide how the sites divide between the shards: 13 to 19 as
// easily as 16 to 16, and the federated figures move with the division.
// Free ports are therefore drawn until the ring divides the sites evenly.
func evenShardAddrs(ws *workingSet) ([]string, error) {
	for try := 0; try < 2000; try++ {
		// Both listeners are open at once, so the two ports differ.
		a, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		b, err := net.Listen("tcp", "127.0.0.1:0")
		a.Close()
		if err != nil {
			return nil, err
		}
		b.Close()
		addrs := []string{a.Addr().String(), b.Addr().String()}
		ring := federation.NewRing(addrs, federation.RingOptions{})
		first := 0
		for _, prefix := range ws.prefixes {
			if ring.Owner(branch.MustParse(prefix)) == addrs[0] {
				first++
			}
		}
		if 2*first == ws.sites {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no pair of free ports divides %d sites evenly between two shards", ws.sites)
}

// spawnServers starts the workload's deployment in the configuration we
// would deploy: -cache indexed passed explicitly, so flipping the default
// later leaves the numbers comparable, and every other flag at its default.
func (e *env) spawnServers(w *workload, dataDir string) (*deployment, error) {
	depotArgs := func(wire string) []string {
		args := []string{"-cache", "indexed", "-tcp", wire, "-http", "127.0.0.1:0"}
		if w.disk {
			args = append(args, "-storage", "disk", "-data", dataDir)
		}
		return args
	}
	d := &deployment{dataDir: dataDir}
	if !w.federated {
		start := time.Now()
		p, err := e.ps.start(wireBanner, httpBanner, depotArgs("127.0.0.1:0")...)
		if err != nil {
			return nil, err
		}
		d.depots, d.front, d.started = []*serverProc{p}, p, time.Since(start)
		return d, nil
	}
	wires, err := evenShardAddrs(newWorkingSet(w.sites, w.probes))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var members []string
	for _, wire := range wires {
		p, err := e.ps.start(wireBanner, httpBanner, depotArgs(wire)...)
		if err != nil {
			d.kill()
			return nil, err
		}
		d.depots = append(d.depots, p)
		members = append(members, p.wireAddr+"/"+p.httpAddr)
	}
	d.front, err = e.ps.start(routerWireBanner, routerHTTPBanner,
		"-federate", strings.Join(members, ","), "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	if err != nil {
		d.kill()
		return nil, err
	}
	d.started = time.Since(start)
	return d, nil
}

// valuePolicy archives the sequence number of every report under the
// working set, so each stored report is also one archive sample.
func valuePolicy() depot.Policy {
	return depot.Policy{
		Name:   policyName,
		Prefix: branch.MustParse("vo=bench"),
		Path:   valuePath,
		Archive: rrd.ArchivalPolicy{
			Step: policyStep, Granularity: 1, History: 24 * time.Hour,
		},
	}
}

// runState is the client side of one run: the branches, and per branch the
// next sequence number and the newest acknowledged report. It outlives the
// load phases and a restart of the deployment.
type runState struct {
	seed  int64
	ws    *workingSet
	acked []ackRecord
	seqs  []int
	qc    *query.Client
}

// setup brings a deployment to the state the load starts from: spawned,
// listening, policy uploaded, one report stored under every branch and
// visible to a query.
func (e *env) setup(w *workload, seed int64, tr *tracer) (*deployment, *runState, error) {
	dataDir, err := os.MkdirTemp(e.runDir, "data-")
	if err != nil {
		return nil, nil, err
	}
	d, err := e.spawn(w, dataDir)
	if err != nil {
		return nil, nil, err
	}
	st := &runState{seed: seed, ws: newWorkingSet(w.sites, w.probes), qc: e.client(d.front.httpAddr, ioTimeout)}
	st.acked = make([]ackRecord, len(st.ws.ids))
	st.seqs = make([]int, len(st.ws.ids))
	if err := st.qc.UploadPolicy(valuePolicy()); err != nil {
		return d, nil, err
	}
	writers, err := e.newWriters(d, st, 1, tr)
	if err != nil {
		return d, nil, err
	}
	defer writers[0].conn.Close()
	if err := writers[0].seed(newRunClock()); err != nil {
		return d, nil, fmt.Errorf("seed: %w", err)
	}
	return d, st, st.awaitWhole()
}

// newWriters connects n writers to the deployment; writer i owns every n-th
// branch.
func (e *env) newWriters(d *deployment, st *runState, n int, tr *tracer) ([]*writer, error) {
	var writers []*writer
	for i := 0; i < n; i++ {
		wr, err := newWriter(d.front.wireAddr, newOpStream(st.seed, i, n, st.ws),
			newBatchBuilder(e.small, st.ws, st.seqs, batchSize), st.acked, tr.buf())
		if err != nil {
			for _, w := range writers {
				w.conn.Close()
			}
			return nil, err
		}
		writers = append(writers, wr)
	}
	return writers, nil
}

// awaitWhole waits until every site reads back whole: a router ack is only
// a custody transfer.
func (st *runState) awaitWhole() error {
	want := subtreeBodyLen(st.ws, smallReport)
	deadline := time.Now().Add(drainTimeout)
	for _, prefix := range st.ws.prefixes {
		for {
			body, err := st.qc.Reports(prefix)
			if err == nil && len(body) == want {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s does not read back whole: %d bytes, want %d: %v", prefix, len(body), want, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// processCPU is the CPU time every server process has used so far.
func processCPU(d *deployment) (float64, error) {
	var total float64
	for _, p := range d.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// handlerSeries is the one family whose labels the per-layer metrics need
// apart: loadgen's parser sums a family over its label sets.
const handlerSeries = "inca_query_request_seconds_"

// scrapeProc reads one process's /metrics as loadgen's family sums, plus the
// query latency histogram's sum and count per handler, keyed as printed
// (inca_query_request_seconds_sum{handler="reports"}).
func (e *env) scrapeProc(p *serverProc) (map[string]float64, error) {
	resp, err := (&http.Client{Transport: e.httpTr, Timeout: ioTimeout}).Get("http://" + p.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s: %v", p.httpAddr, resp.Status, err)
	}
	page, err := loadgen.ParseMetrics(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(series, handlerSeries) || strings.Contains(series, "_bucket{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			page[series] = v
		}
	}
	return page, nil
}

// scrape reads /metrics of the front process and, summed, of every depot
// process (for a single server the two are the same page).
func (e *env) scrape(d *deployment) (front, depots map[string]float64, err error) {
	depots = map[string]float64{}
	for _, p := range d.procs() {
		page, err := e.scrapeProc(p)
		if err != nil {
			return nil, nil, err
		}
		if p == d.front {
			front = page
		}
		if p != d.front || len(d.depots) == 1 {
			for series, v := range page {
				depots[series] += v
			}
		}
	}
	return front, depots, nil
}

// accepted is how many reports the depots' controllers have stored.
func (e *env) accepted(d *deployment) (float64, error) {
	var total float64
	for _, p := range d.depots {
		page, err := loadgen.ScrapeMetrics(e.httpTr, "http://"+p.httpAddr+"/metrics")
		if err != nil {
			return 0, err
		}
		total += page["inca_controller_accepted_total"]
	}
	return total, nil
}

// loadResult is what one load phase measured.
type loadResult struct {
	mix    mix
	window time.Duration // the measured window
	drain  time.Duration // after it, until every acked report reached its depot
	cpuAt  []cpuPoint    // server CPU seconds so far, read about once a second of the window
	host   []float64     // the host factor of every second of the window (hostspeed.go)
	depots int           // processes hosting a depot
	stats  []*clientStats
	// A traced run records spans only in the second half of its window:
	// untracedOps operations completed in the first untracedFor of it.
	untracedOps int64
	untracedFor time.Duration

	// The server's own counters over window + drain.
	front, depotPages map[string]float64
}

// load runs mix m against a set-up deployment: warm-up (a time, or for
// fixed work a share of the quota), the measured window (a time, or a quota
// per second of it), the drain barrier.
func (e *env) load(d *deployment, st *runState, m mix, warmup, seconds time.Duration, tr *tracer, traced bool) (*loadResult, error) {
	res := &loadResult{mix: m, depots: len(d.depots)}
	clk := newRunClock()
	var wg sync.WaitGroup
	spawn := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	acceptedBefore, err := e.accepted(d)
	if err != nil {
		return nil, err
	}

	var probes []sample
	spawn(func() { probes = newHostProbe().run(clk) })
	var sub *subscriber
	if m.subscriber {
		if sub, err = newSubscriber(e.client(d.front.httpAddr, 0), "", tr.buf()); err != nil {
			return nil, err
		}
		defer sub.stream.Close()
		res.stats = append(res.stats, &sub.st)
		spawn(func() { sub.run(clk) })
	}
	n := m.writers
	if m.pacedBurst > 0 {
		n = 1
	}
	writers, err := e.newWriters(d, st, n, tr)
	if err != nil {
		return nil, err
	}
	if m.reader {
		rd := &reader{
			qc:      st.qc,
			ops:     newOpStream(st.seed, n, n+1, st.ws),
			wantLen: subtreeBodyLen(st.ws, smallReport), sb: tr.buf(),
		}
		res.stats = append(res.stats, &rd.st)
		spawn(func() { rd.run(clk) })
	}

	quota := int64(float64(m.fixedPerSecond)*seconds.Seconds()) / int64(n)
	warmed := make(chan struct{}, n)
	measure := make(chan struct{})
	var writersDone sync.WaitGroup
	for _, wr := range writers {
		wr := wr
		res.stats = append(res.stats, &wr.st)
		writersDone.Add(1)
		spawn(func() {
			defer writersDone.Done()
			if m.pacedBurst > 0 {
				wr.runPaced(clk, time.Second, m.pacedBurst)
			} else {
				wr.runClosed(clk, quota/fixedWarmShare, quota, warmed, measure)
			}
		})
	}

	if quota > 0 {
		for range writers {
			<-warmed
		}
	} else {
		time.Sleep(warmup)
	}
	frontBefore, depotsBefore, err := e.scrape(d)
	if err != nil {
		return nil, err
	}
	cpu0, err := processCPU(d)
	if err != nil {
		return nil, err
	}
	clk.beginMeasure()
	start := time.Now()
	close(measure)
	// The window ends when the time is up or, for fixed work, when every
	// writer has stored its quota. A traced run switches tracing on half-way
	// through (by time, or by work), so one window yields the traced and the
	// untraced rate that the tracing overhead is the difference of.
	finished := make(chan struct{})
	if quota > 0 {
		go func() { writersDone.Wait(); close(finished) }()
	} else {
		time.AfterFunc(seconds, func() { close(finished) })
	}
	tick := time.NewTicker(5 * time.Millisecond)
	res.cpuAt = []cpuPoint{{0, cpu0}}
	for running := true; running; {
		select {
		case <-finished:
			running = false
		case <-tick.C:
		}
		if at := time.Since(start); at >= res.cpuAt[len(res.cpuAt)-1].at+time.Second {
			if c, err := processCPU(d); err == nil {
				res.cpuAt = append(res.cpuAt, cpuPoint{at, c})
			}
		}
		if !traced || tr.on.Load() {
			continue
		}
		halfway := time.Since(start) >= seconds/2
		if quota > 0 {
			halfway = opsSoFar(res.stats) >= quota*int64(n)/2
		}
		if halfway {
			res.untracedOps, res.untracedFor = opsSoFar(res.stats), time.Since(start)
			tr.on.Store(true)
		}
	}
	tick.Stop()
	clk.end()
	res.window = time.Since(start)
	if c, err := processCPU(d); err == nil {
		res.cpuAt = append(res.cpuAt, cpuPoint{res.window, c})
	}
	tr.on.Store(false)
	if sub != nil {
		sub.stream.Close()
	}
	wg.Wait()
	res.host = hostFactors(probes, res.window)
	for _, s := range res.stats {
		if s.err != nil {
			return res, s.err
		}
	}

	// Drain barrier: the phase is over when every acknowledged report is in
	// its depot, and the time that takes counts against throughput.
	var stored float64
	for _, wr := range writers {
		stored += float64(wr.st.stored)
	}
	deadline := time.Now().Add(drainTimeout)
	for {
		now, err := e.accepted(d)
		if err != nil {
			return res, err
		}
		if now-acceptedBefore >= stored {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("drain: depots accepted %v of %v acked reports", now-acceptedBefore, stored)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.drain = time.Since(start) - res.window
	frontAfter, depotsAfter, err := e.scrape(d)
	if err != nil {
		return res, err
	}
	res.front, res.depotPages = loadgen.DeltaMetrics(frontBefore, frontAfter), loadgen.DeltaMetrics(depotsBefore, depotsAfter)
	return res, nil
}

func opsSoFar(stats []*clientStats) int64 {
	// Read while clients run: a traced run's overhead estimate only.
	var n int64
	for _, s := range stats {
		n += s.acked.Load() + s.reads.Load()
	}
	return n
}

// readPassReaders is how many closed-loop readers the read pass runs. Two
// keep both of this host's cores busy; one reader alone hands the turn back
// and forth with the server, each waking the other from an idle CPU, and what
// such a wake-up costs on a shared host varies more from run to run than
// anything else here (ten runs spread 9 and 11 % on the two read latencies
// with one reader, 7 and 5 % with two, 14 and 16 % with one for twice as
// long).
const readPassReaders = 2

// readPass gives a workload whose window has no reader its read figures,
// once the window is over, drained and checked: the dashboard's read cycle
// (twelve subtree reads, four revalidations) from two closed-loop readers
// against the otherwise idle deployment, in the state the workload left it
// in. Nothing is written meanwhile, so every revalidation is a 304.
func (e *env) readPass(d *deployment, st *runState, tr *tracer) (*loadResult, error) {
	res := &loadResult{depots: len(d.depots)}
	clk := newRunClock()
	var wg sync.WaitGroup
	spawn := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	var probes []sample
	spawn(func() { probes = newHostProbe().run(clk) })
	for i := 0; i < readPassReaders; i++ {
		rd := &reader{
			qc:      st.qc,
			ops:     newOpStream(st.seed, i, readPassReaders, st.ws),
			wantLen: subtreeBodyLen(st.ws, smallReport), sb: tr.buf(),
		}
		res.stats = append(res.stats, &rd.st)
		spawn(func() { rd.run(clk) })
	}
	time.Sleep(e.readWarmup)
	clk.beginMeasure()
	start := time.Now()
	time.Sleep(e.readFor)
	res.window = time.Since(start)
	clk.end()
	wg.Wait()
	res.host = hostFactors(probes, res.window)
	for _, s := range res.stats {
		if s.err != nil {
			return res, s.err
		}
	}
	return res, nil
}

// crashRestart SIGKILLs every server of the deployment, restarts it on the
// same flags and -data. The new deployment's started is the recovery time:
// the server replays its log before it listens.
func (e *env) crashRestart(w *workload, d *deployment, st *runState) (*deployment, error) {
	d.kill()
	nd, err := e.spawn(w, d.dataDir)
	if err != nil {
		return nil, err
	}
	st.qc = e.client(nd.front.httpAddr, ioTimeout)
	return nd, nil
}

// cleanup kills the deployment and removes its -data directory.
func (d *deployment) cleanup() {
	d.kill()
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// allocatedBytes is the disk space the files under dir occupy; archive
// files are sparse, so their length would overstate it.
func allocatedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += blocksOf(info) * 512
		}
		return nil
	})
	return total, err
}
