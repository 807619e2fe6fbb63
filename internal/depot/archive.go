package depot

import (
	"hash/fnv"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/report"
	"inca/internal/rrd"
)

// The archive pipeline. The paper's depot does both jobs on every report —
// cache update and archival (Section 3.2.2) — and Figure 9 shows the
// archive phase dominating cache processing once policies match. Three
// structural changes take it off the hot path:
//
//   - Policy matching is O(matching policies): policies are compiled into a
//     prefix index keyed by the most general pair of their branch prefix,
//     so a store consults only the policies rooted at its own subtree.
//   - Archives live in striped shards keyed by branch|policy, so stores on
//     unrelated branches never contend on one mutex.
//   - In async mode the store enqueues an archive job and returns after the
//     cache insert; a worker pool extracts and consolidates in the
//     background, batching RRD updates per archive (rrd.UpdateBatch).
//     Jobs are routed to workers by branch hash, which keeps per-branch
//     FIFO order — after Drain(), series contents are identical to sync
//     mode.

// compiledPolicy pairs a Policy with its pre-compiled extraction path.
type compiledPolicy struct {
	Policy
	path   report.Path
	pathOK bool // false: expression never resolves (matches Node.Find)
}

// policySet is an immutable snapshot of the uploaded policies, indexed for
// matching. Depot swaps the whole set atomically on AddPolicy, so the store
// path reads it without locking.
type policySet struct {
	all []Policy
	// byRoot indexes auto-matching policies by the most general pair of
	// their prefix: a report under branch id can only match policies whose
	// prefix ends with id's own most general pair.
	byRoot map[branch.Pair][]*compiledPolicy
	// rootless policies (empty prefix) match every branch.
	rootless []*compiledPolicy
	// byName resolves ArchiveUpdate targets (includes ManualOnly).
	byName map[string]*compiledPolicy
}

func compilePolicySet(policies []Policy) *policySet {
	set := &policySet{
		all:    policies,
		byRoot: make(map[branch.Pair][]*compiledPolicy),
		byName: make(map[string]*compiledPolicy, len(policies)),
	}
	for i := range policies {
		cp := &compiledPolicy{Policy: policies[i]}
		if p, err := report.CompilePath(policies[i].Path); err == nil {
			cp.path, cp.pathOK = p, true
		}
		set.byName[cp.Name] = cp
		if cp.ManualOnly {
			continue
		}
		if len(cp.Prefix.Pairs) == 0 {
			set.rootless = append(set.rootless, cp)
			continue
		}
		root := cp.Prefix.Pairs[len(cp.Prefix.Pairs)-1]
		set.byRoot[root] = append(set.byRoot[root], cp)
	}
	return set
}

// match returns the auto-matching policies for a branch, in upload order
// (the index preserves per-root order, and candidate lists are disjoint).
func (s *policySet) match(id branch.ID) []*compiledPolicy {
	var out []*compiledPolicy
	if len(id.Pairs) > 0 {
		for _, cp := range s.byRoot[id.Pairs[len(id.Pairs)-1]] {
			if id.HasSuffix(cp.Prefix) {
				out = append(out, cp)
			}
		}
	}
	if len(s.rootless) > 0 {
		out = append(out, s.rootless...)
	}
	return out
}

func shardIndex(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// lookupDB returns the pinned archive for key; the caller must invoke the
// release function when done with the handle.
func (d *Depot) lookupDB(key string) (archiveDB, func(), bool) {
	return d.archives.lookup(key)
}

// ensureDB returns the pinned archive for key, creating it from the policy
// when absent. start seeds a new database one step before the first
// sample. The caller must invoke the release function when done.
func (d *Depot) ensureDB(key string, cp *compiledPolicy, start time.Time) (archiveDB, func(), error) {
	return d.archives.ensure(key, cp, start)
}

// archiveJob is one report headed for the archive: the branch, the matched
// policies (snapshotted at store time, exactly as the sync path applies
// them), and the report bytes — copied at enqueue in async mode because the
// wire layer pools envelope buffers.
type archiveJob struct {
	id       branch.ID
	key      string // id.String(), computed once
	policies []*compiledPolicy
	report   []byte
	// enqueuedAt stamps async jobs for the enqueue→consolidation lag
	// histogram; zero on the sync path.
	enqueuedAt time.Time
}

// archiveBatch caps how many queued jobs one worker wakeup drains into a
// single consolidation batch.
const archiveBatch = 32

// archivePipeline is the async machinery: one bounded queue per worker,
// jobs routed by branch hash so one branch's samples stay ordered.
type archivePipeline struct {
	queues  []chan archiveJob
	workers sync.WaitGroup
	drop    bool

	// pending counts enqueued-but-unfinished jobs; Drain waits for zero.
	mu      sync.Mutex
	cond    *sync.Cond
	pending int
	// closed refuses new enqueues so shutdown cannot race a concurrent
	// store into a closed queue; refused callers archive synchronously.
	closed bool
}

// ArchiveStats are the archive pipeline counters surfaced in /debug/vars.
type ArchiveStats struct {
	Enqueued uint64 // jobs accepted into the async queue
	Dropped  uint64 // jobs rejected because the queue was full (drop mode)
	Blocked  uint64 // enqueues that had to wait for queue space
	Applied  uint64 // samples consolidated into archives
	Matched  uint64 // stores that matched at least one policy
}

func newArchivePipeline(workers, queue int, drop bool) *archivePipeline {
	p := &archivePipeline{
		queues: make([]chan archiveJob, workers),
		drop:   drop,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.queues {
		p.queues[i] = make(chan archiveJob, queue)
	}
	return p
}

func (p *archivePipeline) start(d *Depot) {
	for _, q := range p.queues {
		p.workers.Add(1)
		go d.archiveWorker(q)
	}
}

// enqueue hands a job to the worker owning its branch. It returns false
// only when the pipeline is shutting down and refused the job — the caller
// must archive synchronously. A job shed in drop mode (full queue) was
// still taken: it is counted as dropped and enqueue returns true.
func (p *archivePipeline) enqueue(d *Depot, job archiveJob) bool {
	q := p.queues[shardIndex(job.key, len(p.queues))]
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	// Registering pending before the send pins the shutdown order: close()
	// flips closed, then drains, and pending cannot reach zero until the
	// worker has both received and applied this job — so the queues stay
	// open for every send that got past the closed check.
	p.pending++
	p.mu.Unlock()
	select {
	case q <- job:
		d.enqueued.Inc()
		return true
	default:
	}
	if p.drop {
		p.jobsDone(1)
		d.dropped.Inc()
		return true
	}
	// Backpressure: block until the worker catches up.
	d.blocked.Inc()
	q <- job
	d.enqueued.Inc()
	return true
}

// pendingCount reads the enqueued-but-unfinished job count (scrape-time
// gauge).
func (p *archivePipeline) pendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

func (p *archivePipeline) jobsDone(n int) {
	p.mu.Lock()
	p.pending -= n
	if p.pending == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// drain blocks until every enqueued job has been consolidated.
func (p *archivePipeline) drain() {
	p.mu.Lock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// close refuses further enqueues, waits for the queued jobs to
// consolidate, and stops the workers. Safe against concurrent enqueues;
// later calls return immediately.
func (p *archivePipeline) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.drain()
	for _, q := range p.queues {
		close(q)
	}
	p.workers.Wait()
}

// archiveWorker consumes one queue. Each wakeup greedily drains up to the
// batch limit so consecutive samples for the same archive consolidate under
// one lock acquisition (rrd.UpdateBatch).
func (d *Depot) archiveWorker(q chan archiveJob) {
	defer d.pipeline.workers.Done()
	jobs := make([]archiveJob, 0, archiveBatch)
	for job := range q {
		jobs = append(jobs[:0], job)
		for len(jobs) < archiveBatch {
			select {
			case j, ok := <-q:
				if !ok {
					d.applyJobs(jobs)
					return
				}
				jobs = append(jobs, j)
			default:
				goto apply
			}
		}
	apply:
		d.applyJobs(jobs)
	}
}

// applyJobs extracts values from a batch of jobs and consolidates them,
// grouping samples per archive. Queue routing guarantees every job for a
// branch lands in the same batch stream in order, so grouped samples stay
// chronological.
func (d *Depot) applyJobs(jobs []archiveJob) {
	// Jobs stay pending until their samples are consolidated: Drain() is
	// the read-your-writes barrier for snapshots and shutdown, so pending
	// must not reach zero between extraction and UpdateBatch.
	defer d.pipeline.jobsDone(len(jobs))
	type pendingArchive struct {
		cp      *compiledPolicy
		start   time.Time
		samples []rrd.Sample
	}
	var order []string
	grouped := make(map[string]*pendingArchive)
	for _, job := range jobs {
		if !job.enqueuedAt.IsZero() {
			d.lagH.ObserveSince(job.enqueuedAt)
		}
		values, gmt, ok := d.extract(job.policies, job.report)
		if !ok {
			continue
		}
		for i, cp := range job.policies {
			if !values[i].ok {
				continue
			}
			key := job.key + "|" + cp.Name
			pa := grouped[key]
			if pa == nil {
				pa = &pendingArchive{cp: cp, start: gmt}
				grouped[key] = pa
				order = append(order, key)
			}
			pa.samples = append(pa.samples, rrd.Sample{Time: gmt, Value: values[i].value})
		}
	}
	for _, key := range order {
		pa := grouped[key]
		db, release, err := d.ensureDB(key, pa.cp, pa.start)
		if err != nil {
			continue
		}
		if n, err := db.UpdateBatch(pa.samples); err == nil && n > 0 {
			d.applied.Add(uint64(n))
			d.archiveGen.Add(1)
		}
		release()
	}
}

// extracted is one policy's extraction outcome for a report.
type extracted struct {
	value float64
	ok    bool
}

// extract pulls every policy-referenced value out of one report; the
// streaming extractor reads only the requested paths. Returns ok=false
// when the payload is not a report (cacheable, not archivable — skipped
// silently).
func (d *Depot) extract(policies []*compiledPolicy, reportXML []byte) ([]extracted, time.Time, bool) {
	out := make([]extracted, len(policies))
	// Deduplicate paths across policies (several policies often archive the
	// same leaf under different granularities) so each distinct path is
	// matched once per scan.
	paths := make([]report.Path, 0, len(policies))
	slot := make([]int, len(policies))
	for i, cp := range policies {
		if !cp.pathOK {
			slot[i] = -1
			continue
		}
		found := -1
		for j := range paths {
			if paths[j].String() == cp.path.String() {
				found = j
				break
			}
		}
		if found < 0 {
			found = len(paths)
			paths = append(paths, cp.path)
		}
		slot[i] = found
	}
	ex, err := report.ExtractValues(reportXML, paths)
	if err != nil {
		return nil, time.Time{}, false
	}
	for i := range policies {
		if slot[i] >= 0 && ex.Found[slot[i]] {
			out[i] = extracted{ex.Values[slot[i]], true}
		}
	}
	return out, ex.GMT, true
}
