package depot

import (
	"encoding/xml"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"inca/internal/branch"
	"inca/internal/envelope"
	"inca/internal/metrics"
	"inca/internal/rrd"
)

// Policy is an uploadable archival policy (paper Section 3.2.2): which
// cached data to archive, extracted from where in the report body, at what
// granularity and history length. "This configuration has to be done only
// once and one can assign several pieces of data the same policy at the
// same time."
type Policy struct {
	// Name identifies the policy (and the archive files it creates).
	Name string
	// Prefix selects the branch subtree the policy applies to; a report
	// stored under any matching identifier is archived.
	Prefix branch.ID
	// Path locates the numeric value inside the report body (an Inca path
	// expression, leaf first). When empty, the report's success (1/0) is
	// archived instead — which is how availability series are built.
	Path string
	// Archive is the round-robin storage configuration.
	Archive rrd.ArchivalPolicy
	// ManualOnly policies never match stored reports automatically; they
	// only accept values through ArchiveUpdate (used for derived metrics
	// such as summary percentages).
	ManualOnly bool
}

// Receipt describes the processing of one stored envelope: the paper's
// response-time decomposition into envelope unpacking and cache processing
// (Figure 9's two curves). Archive is the full extraction-and-consolidation
// time.
type Receipt struct {
	Branch     branch.ID
	ReportSize int
	CacheSize  int
	Unpack     time.Duration
	Insert     time.Duration
	Archive    time.Duration
	Added      bool
}

// Total returns the whole processing time.
func (r Receipt) Total() time.Duration { return r.Unpack + r.Insert + r.Archive }

// Options configure a depot.
type Options struct {
	// Metrics registers the depot's instruments (stage latencies, archive
	// counters, cache gauges). Nil keeps them private.
	Metrics *metrics.Registry
}

// ChangeKind classifies a depot commit for change-feed publication.
type ChangeKind uint8

const (
	// ChangeReport is a report stored into the cache.
	ChangeReport ChangeKind = iota
	// ChangePolicy is an archival-policy upload.
	ChangePolicy
	// ChangeManual is a manual archive update.
	ChangeManual
)

// Change describes one committed mutation, published to the change feed
// after the commit succeeds. Report carries the report body for
// ChangeReport (valid only for the duration of the publisher call — the
// wire layer reuses envelope buffers) and the policy name for
// ChangePolicy/ChangeManual.
type Change struct {
	Branch branch.ID
	Kind   ChangeKind
	Report []byte
}

// Depot is Inca's storage facility: cache plus archive.
type Depot struct {
	cache Cache

	// publisher, when set, observes every committed mutation (the change
	// feed). Installed after WAL replay so recovery does not re-publish.
	publisher atomic.Pointer[func(Change)]

	// policies is an immutable snapshot swapped on AddPolicy; the store
	// path matches against it without locking. polMu serializes writers.
	polMu    sync.Mutex
	policies atomic.Pointer[policySet]

	// archives is the storage backend: resident shards (memoryStore) or
	// paged files behind a handle LRU (diskStore).
	archives archiveStore

	// Disk engine only (nil/zero otherwise): the write-ahead log, its
	// directories, and the checkpoint machinery. storeBarrier is held
	// shared by every logged mutation and exclusively around WAL rotation,
	// so no mutation straddles a checkpoint's segment boundary.
	wal          *wal
	dataDir      string
	walDir       string
	ckptMu       sync.Mutex
	storeBarrier sync.RWMutex

	// archiveGen is a cache validator (advances per applied sample), not a
	// metric — it stays an atomic so comparisons are exact.
	archiveGen atomic.Uint64

	received *metrics.Counter
	bytes    *metrics.Counter
	applied  *metrics.Counter
	matched  *metrics.Counter
	fallback *metrics.Counter

	unpackH  *metrics.Histogram // envelope decode
	insertH  *metrics.Histogram // cache update
	archiveH *metrics.Histogram // match, extract and consolidate
}

// New creates a depot over the given cache with default options. A nil
// cache means the IndexedCache, here and wherever else a depot is built or
// restored (NewWithOptions, OpenDisk, ReadSnapshot).
func New(cache Cache) *Depot {
	return NewWithOptions(cache, Options{})
}

// NewWithOptions creates a memory depot with explicit options.
func NewWithOptions(cache Cache, opts Options) *Depot {
	return newDepot(cache, opts, newMemoryStore())
}

// newDepot wires a depot over an explicit archive store (OpenDisk passes
// the paged-file backend).
func newDepot(cache Cache, opts Options, store archiveStore) *Depot {
	if cache == nil {
		cache = NewIndexedCache()
	}
	d := &Depot{cache: cache, archives: store}
	reg := opts.Metrics
	d.received = reg.Counter("inca_depot_received_total", "Reports stored into the depot.")
	d.bytes = reg.Counter("inca_depot_bytes_total", "Report payload bytes stored.")
	d.applied = reg.Counter("inca_depot_archive_applied_total", "Samples consolidated into archives.")
	d.matched = reg.Counter("inca_depot_archive_matched_total", "Stores that matched at least one archival policy.")
	d.fallback = reg.Counter("inca_depot_insert_fallback_total", "Reports the cache insert tokenised with encoding/xml because they were not in the encoder's own form.")
	if ic, ok := cache.(*IndexedCache); ok {
		ic.fallbacks = d.fallback // before anything is stored: not safe alongside Update
	}
	d.unpackH = reg.Histogram("inca_depot_unpack_seconds", "Envelope decode latency.", nil)
	d.insertH = reg.Histogram("inca_depot_insert_seconds", "Cache insert latency.", nil)
	d.archiveH = reg.Histogram("inca_depot_archive_seconds", "Archive phase latency on the store path.", nil)
	reg.GaugeFunc("inca_depot_cache_bytes", "Bytes held in the report cache.", func() float64 {
		return float64(d.cache.Size())
	})
	reg.GaugeFunc("inca_depot_cache_entries", "Documents held in the report cache.", func() float64 {
		return float64(d.cache.Count())
	})
	reg.GaugeFunc("inca_depot_archives", "Round-robin archives materialized.", func() float64 {
		return float64(d.archives.count())
	})
	d.policies.Store(compilePolicySet(nil))
	return d
}

// Cache exposes the underlying cache for queries.
func (d *Depot) Cache() Cache { return d.cache }

// SetPublisher installs the change-feed publication hook. The function is
// called synchronously after each successful commit (store, policy upload,
// manual archive update), so it must be fast — the feed hub only stamps a
// cursor and offers to in-memory queues. WAL replay runs inside OpenDisk,
// before any caller can install a publisher, so recovery never
// re-publishes. Pass nil to detach.
func (d *Depot) SetPublisher(fn func(Change)) {
	if fn == nil {
		d.publisher.Store(nil)
		return
	}
	d.publisher.Store(&fn)
}

func (d *Depot) publish(c Change) {
	if fn := d.publisher.Load(); fn != nil {
		(*fn)(c)
	}
}

// AddPolicy uploads an archival policy. Policies apply to reports stored
// after the upload.
func (d *Depot) AddPolicy(p Policy) error {
	if p.Name == "" {
		return fmt.Errorf("depot: policy with empty name")
	}
	if p.Archive.Step <= 0 || p.Archive.History <= 0 {
		return fmt.Errorf("depot: policy %s has invalid archive configuration", p.Name)
	}
	if d.wal != nil {
		d.storeBarrier.RLock()
		defer d.storeBarrier.RUnlock()
		frame, err := xml.Marshal(marshalPolicyEntry(p))
		if err != nil {
			return err
		}
		if err := d.wal.append(walFramePolicy, frame); err != nil {
			return err
		}
	}
	return d.addPolicyApply(p)
}

// addPolicyApply installs a policy (already logged, when logging at all).
func (d *Depot) addPolicyApply(p Policy) error {
	d.polMu.Lock()
	defer d.polMu.Unlock()
	cur := d.policies.Load()
	for _, existing := range cur.all {
		if existing.Name == p.Name {
			return fmt.Errorf("depot: duplicate policy %s", p.Name)
		}
	}
	next := make([]Policy, len(cur.all), len(cur.all)+1)
	copy(next, cur.all)
	next = append(next, p)
	d.policies.Store(compilePolicySet(next))
	d.publish(Change{Branch: p.Prefix, Kind: ChangePolicy, Report: []byte(p.Name)})
	return nil
}

// Policies returns the uploaded policies.
func (d *Depot) Policies() []Policy {
	return append([]Policy(nil), d.policies.Load().all...)
}

// StoreEnvelope ingests one serialized envelope: unpack, cache insert,
// archive. The receipt carries the per-phase timings the evaluation uses.
func (d *Depot) StoreEnvelope(data []byte) (Receipt, error) {
	t0 := time.Now()
	env, err := envelope.Decode(data)
	if err != nil {
		return Receipt{}, err
	}
	t1 := time.Now()
	rec, err := d.Store(env.Branch, env.Report)
	if err != nil {
		return Receipt{}, err
	}
	rec.Unpack = t1.Sub(t0)
	d.unpackH.Observe(rec.Unpack.Seconds())
	return rec, nil
}

// Store ingests an already-unwrapped report (used by in-process
// deployments and tests; the unpack phase is zero).
func (d *Depot) Store(id branch.ID, reportXML []byte) (Receipt, error) {
	if d.wal != nil {
		// Log first, then apply: a crash after the append replays the
		// report; a crash before it never acknowledged the store. The
		// shared barrier keeps the append and its application on the same
		// side of any concurrent checkpoint rotation.
		d.storeBarrier.RLock()
		defer d.storeBarrier.RUnlock()
		if err := d.wal.append(walFrameReport, encodeReportFrame(id, reportXML)); err != nil {
			return Receipt{}, err
		}
	}
	return d.storeApply(id, reportXML)
}

// storeApply is the store path past the write-ahead log (the WAL replay
// entry point).
func (d *Depot) storeApply(id branch.ID, reportXML []byte) (Receipt, error) {
	t1 := time.Now()
	// Added comes straight from the cache update: deriving it from
	// Count() before/after misreports under concurrent stores (two adds
	// racing would both see the count rise by two).
	added, err := d.cache.Update(id, reportXML)
	if err != nil {
		return Receipt{}, err
	}
	t2 := time.Now()
	d.archive(id, reportXML)
	t3 := time.Now()
	d.received.Inc()
	d.bytes.Add(uint64(len(reportXML)))
	d.insertH.Observe(t2.Sub(t1).Seconds())
	d.archiveH.Observe(t3.Sub(t2).Seconds())
	d.publish(Change{Branch: id, Kind: ChangeReport, Report: reportXML})
	return Receipt{
		Branch:     id,
		ReportSize: len(reportXML),
		CacheSize:  d.cache.Size(),
		Insert:     t2.Sub(t1),
		Archive:    t3.Sub(t2),
		Added:      added,
	}, nil
}

// archive consolidates the stored report into the archive of every
// matching policy before store returns: a sample is readable as soon as its
// store is acknowledged.
func (d *Depot) archive(id branch.ID, reportXML []byte) {
	matching := d.policies.Load().match(id)
	if len(matching) == 0 {
		return
	}
	d.matched.Inc()
	values, gmt, ok := d.extract(matching, reportXML)
	if !ok {
		// Non-report XML can be cached (unknown schemas are welcome) but
		// cannot be archived; skip silently.
		return
	}
	key := id.String()
	for i, cp := range matching {
		if !values[i].ok {
			continue
		}
		db, release, err := d.archives.ensure(key+"|"+cp.Name, cp, gmt)
		if err != nil {
			continue
		}
		if err := db.Update(gmt, values[i].value); err == nil {
			// Out-of-order or duplicate timestamps are dropped, as RRDTool
			// drops them; only applied samples advance the generation.
			d.applied.Inc()
			d.archiveGen.Add(1)
		}
		release()
	}
}

// Close releases a disk-backed depot's archive handles (flushing them to
// stable storage) and its write-ahead log. On a memory depot it does
// nothing.
func (d *Depot) Close() {
	if d.wal != nil {
		d.archives.close()
		d.wal.close()
	}
}

// ArchiveUpdate records a value directly into a policy archive, bypassing
// report parsing. Consumers use it to archive derived metrics such as the
// summary percentages behind Figure 5.
func (d *Depot) ArchiveUpdate(id branch.ID, policyName string, at time.Time, value float64) error {
	if d.wal != nil {
		d.storeBarrier.RLock()
		defer d.storeBarrier.RUnlock()
		if err := d.wal.append(walFrameManual, encodeManualFrame(id, policyName, at, value)); err != nil {
			return err
		}
	}
	return d.archiveUpdateApply(id, policyName, at, value)
}

// archiveUpdateApply is ArchiveUpdate past the write-ahead log (the WAL
// replay entry point).
func (d *Depot) archiveUpdateApply(id branch.ID, policyName string, at time.Time, value float64) error {
	cp, ok := d.policies.Load().byName[policyName]
	if !ok {
		return fmt.Errorf("depot: no policy %s", policyName)
	}
	db, release, err := d.archives.ensure(id.String()+"|"+policyName, cp, at)
	if err != nil {
		return err
	}
	defer release()
	if err := db.Update(at, value); err != nil {
		return err
	}
	d.archiveGen.Add(1)
	d.publish(Change{Branch: id, Kind: ChangeManual, Report: []byte(policyName)})
	return nil
}

// FetchArchive retrieves an archived series for the exact branch identifier
// and policy.
func (d *Depot) FetchArchive(id branch.ID, policyName string, cf rrd.CF, start, end time.Time) (*rrd.Series, error) {
	db, release, ok := d.archives.lookup(id.String() + "|" + policyName)
	if !ok {
		return nil, fmt.Errorf("depot: no archive for %s under policy %s", id, policyName)
	}
	defer release()
	return db.Fetch(cf, start, end)
}

// ArchivedSeries lists the (branch, policy) pairs with archives.
func (d *Depot) ArchivedSeries() []string {
	return d.archives.keys()
}

// CacheGeneration returns the cache's generation counter. It is the
// validator the read layers build ETags from — and what the federation
// query tier composes across shards: each shard exports its generation
// here, and the scatter-gather tier concatenates them into one end-to-end
// validator.
func (d *Depot) CacheGeneration() uint64 { return d.cache.Generation() }

// ArchiveGeneration returns a counter that advances on every applied
// archive sample, depot-wide (surfaced in /debug/vars).
func (d *Depot) ArchiveGeneration() uint64 { return d.archiveGen.Load() }

// ArchiveSeriesGeneration returns a validator for one archived series —
// the count of updates applied to its database — and whether the archive
// exists. Unlike ArchiveGeneration it is scoped to the (branch, policy)
// pair, so a /archive client's ETag stays valid while other series ingest.
func (d *Depot) ArchiveSeriesGeneration(id branch.ID, policyName string) (uint64, bool) {
	db, release, ok := d.archives.lookup(id.String() + "|" + policyName)
	if !ok {
		return 0, false
	}
	defer release()
	return db.Updates(), true
}

// Stats summarizes depot activity.
type Stats struct {
	Received   uint64
	Bytes      uint64
	CacheSize  int
	CacheCount int
	Archives   int
	Archive    ArchiveStats
}

// Stats returns current counters.
func (d *Depot) Stats() Stats {
	archives := d.archives.count()
	return Stats{
		Received:   d.received.Value(),
		Bytes:      d.bytes.Value(),
		CacheSize:  d.cache.Size(),
		CacheCount: d.cache.Count(),
		Archives:   archives,
		Archive: ArchiveStats{
			Applied: d.applied.Value(),
			Matched: d.matched.Value(),
		},
	}
}

// LatestValue returns the most recent known value from an archive, or NaN.
// The archive tracks it as samples consolidate (rrd.DB.LastKnown), so the
// availability page's per-resource calls are O(1), not a 24-hour fetch.
// As with the fetch-and-scan this replaced, a value consolidated more than
// 24 hours before the archive's last update is treated as unknown: a
// resource that stopped reporting values has no current one.
func (d *Depot) LatestValue(id branch.ID, policyName string, cf rrd.CF) float64 {
	db, release, ok := d.archives.lookup(id.String() + "|" + policyName)
	if !ok {
		return math.NaN()
	}
	defer release()
	v, at := db.LastKnown(cf)
	if at.Before(db.Last().Add(-24 * time.Hour)) {
		return math.NaN()
	}
	return v
}
