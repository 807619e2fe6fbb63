package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"net/url"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/query"
	"inca/internal/rrd"
)

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
	Note    string  `json:"-"`
}

// runResult is one run of one workload.
type runResult struct {
	workload          *workload
	seed              int64
	attempted, failed int64
	problems          []string // every output check that did not hold
	metrics           map[string]metricValue
	spans             []span
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *runResult) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkStored reads every site back and compares each branch's stored
// report, byte for byte, with the last one acknowledged for it. It returns
// how many branches differ or are missing.
func (e *env) checkStored(st *runState) (int64, error) {
	index := make(map[string]int, len(st.ws.ids))
	for i, id := range st.ws.ids {
		index[id] = i
	}
	want := make([]byte, smallReport)
	seen := 0
	var bad int64
	for _, prefix := range st.ws.prefixes {
		body, err := st.qc.Reports(prefix)
		if err != nil {
			return 0, err
		}
		for {
			i := bytes.Index(body, storedOpen)
			if i < 0 {
				break
			}
			body = body[i+len(storedOpen):]
			j := bytes.Index(body, []byte(`">`))
			if j < 0 || len(body) < j+2+smallReport {
				bad++
				break
			}
			br, ok := index[string(body[:j])]
			got := body[j+2 : j+2+smallReport]
			body = body[j+2+smallReport:]
			if !ok {
				bad++
				continue
			}
			seen++
			rec := st.acked[br]
			e.small.fill(want, rec.seq, time.Unix(0, rec.sent))
			if !bytes.Equal(got, want) {
				bad++
			}
		}
	}
	if missing := len(st.ws.ids) - seen; missing > 0 {
		bad += int64(missing)
	}
	return bad, nil
}

// checkArchives fetches every series and checks that it holds one sample
// per acknowledged report, each row carrying the sequence number of the
// report that wrote it. It returns how many series do not.
func checkArchives(st *runState) (int64, error) {
	var bad int64
	for br, id := range st.ws.ids {
		last := st.acked[br].seq
		points, err := st.qc.Archive(id, policyName, rrd.Average, gmtBase, gmtBase.Add(time.Duration(last)*policyStep))
		if err != nil {
			return 0, err
		}
		ok := len(points) == last
		for _, p := range points {
			if p.Value != float64(p.Time.Sub(gmtBase)/policyStep) {
				ok = false
			}
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// checkAgainstSingleDepot stores the acknowledged reports into an
// in-process single depot and compares its whole /reports body with the
// federated tier's.
func (e *env) checkAgainstSingleDepot(st *runState) (bool, error) {
	d := depot.New(depot.NewIndexedCache())
	buf := make([]byte, smallReport)
	for br, id := range st.ws.ids {
		rec := st.acked[br]
		e.small.fill(buf, rec.seq, time.Unix(0, rec.sent))
		if _, err := d.Store(branch.MustParse(id), buf); err != nil {
			return false, err
		}
	}
	rec := httptest.NewRecorder()
	query.NewServer(d).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/reports?"+url.Values{"branch": {""}}.Encode(), nil))
	got, err := st.qc.Reports("")
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, rec.Body.Bytes()), nil
}

// runWorkload runs one workload once, from spawn to teardown.
func (e *env) runWorkload(w *workload, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{workload: w, seed: seed, metrics: map[string]metricValue{}}
	tr := newTracer()
	var d *deployment
	var st *runState
	defer func() {
		if d != nil {
			d.cleanup()
		}
	}()

	// Set-up, several times: the load runs against the last.
	var setupS, spawnS []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.cleanup()
		}
		start := time.Now()
		var err error
		if d, st, err = e.setup(w, seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spawnS = append(spawnS, d.started.Seconds())
	}

	lr, err := e.load(d, st, w.mix, e.warmup, time.Duration(seconds)*time.Second, tr, traced)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := e.checkOutputs(res, d, st, false); err != nil {
		return nil, err
	}
	var rssMB float64
	for _, p := range d.procs() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rssMB += mb
	}

	// A memory deployment keeps nothing across a restart, so its recovery
	// is a cold start, which every set-up above has timed. A disk
	// deployment is killed and restarted on its -data; afterwards every
	// acknowledged report and every applied sample must still be there
	// (the policy comes back from the log).
	recoverS := spawnS
	var diskPerReport float64
	if w.disk {
		bytes, err := allocatedBytes(d.dataDir)
		if err != nil {
			return nil, err
		}
		var stored int
		for _, n := range st.seqs {
			stored += n // every report sent so far was acknowledged
		}
		diskPerReport = float64(bytes) / float64(stored)
		nd, err := e.crashRestart(w, d, st)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		d, recoverS = nd, []float64{nd.started.Seconds()}
		if err := e.checkOutputs(res, d, st, true); err != nil {
			return nil, err
		}
	}

	// A workload without a reader in its window gets its read figures from
	// a read pass after it.
	reads := lr
	if !traced && !w.reader {
		if reads, err = e.readPass(d, st, tr); err != nil {
			return nil, fmt.Errorf("read pass: %w", err)
		}
	}
	d.cleanup()
	if n := e.ps.leaked(); n > 0 {
		res.problem("%d inca-server processes outlived the run", n)
	}

	if traced {
		if e.layers == nil {
			tr.on.Store(true)
			err := e.layerTrace(tr)
			tr.on.Store(false)
			if err != nil {
				return nil, fmt.Errorf("micro-trace: %w", err)
			}
		}
		for name, v := range e.layers {
			res.metrics[name] = v
		}
	}
	e.assemble(res, lr, reads, setupS, recoverS, rssMB, diskPerReport, tr, traced)
	return res, nil
}

// checkOutputs runs the output checks on the drained deployment: every
// branch's newest stored report is the last one acknowledged for it, and
// every stored report became an archive sample. On a deployment that has
// been killed and restarted the second is checked on the archives themselves
// (the restarted server's counters count the replay, which applies nothing
// twice); on one that has not, on the depots' counters.
func (e *env) checkOutputs(res *runResult, d *deployment, st *runState, restarted bool) error {
	bad, err := e.checkStored(st)
	if err != nil {
		return fmt.Errorf("check stored reports: %w", err)
	}
	if bad > 0 {
		res.failed += bad
		res.problem("%d branches: newest stored report differs from the last one acknowledged", bad)
	}
	if restarted {
		if bad, err = checkArchives(st); err != nil {
			return fmt.Errorf("check archives: %w", err)
		}
		if bad > 0 {
			res.failed += bad
			res.problem("%d archive series do not hold one sample per acknowledged report", bad)
		}
		return nil
	}
	_, depots, err := e.scrape(d)
	if err != nil {
		return err
	}
	if a, m, r := depots["inca_depot_archive_applied_total"], depots["inca_depot_archive_matched_total"], depots["inca_depot_received_total"]; a != m || m != r {
		res.problem("archive: %v samples applied, %v stores matched, %v reports received: want all equal", a, m, r)
	}
	if len(d.depots) > 1 {
		same, err := e.checkAgainstSingleDepot(st)
		if err != nil {
			return fmt.Errorf("check against a single depot: %w", err)
		}
		if !same {
			res.failed++
			res.problem("federated /reports body differs from the same data in a single depot")
		}
	}
	return nil
}
