package depot

import (
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"inca/internal/rrd"
	rrdfile "inca/internal/rrd/file"
)

// The archive storage backends. A depot holds its round-robin archives
// behind archiveStore so the same archive path serves two engines:
//
//   - memoryStore: every archive resident, striped shards — the classic
//     configuration, fastest, RSS grows with series count.
//   - diskStore: every archive a paged file (rrd/file), a bounded LRU of
//     open handles — RSS stays flat however many series exist, and rows
//     survive restarts in place.
//
// Both speak archiveDB, the narrow slice of rrd.DB the depot uses, which
// *rrd.DB and *rrdfile.DB satisfy identically — including byte-identical
// WriteTo images, so snapshots are interchangeable across backends.

// archiveDB is one round-robin archive as the depot sees it.
type archiveDB interface {
	Update(t time.Time, values ...float64) error
	Fetch(cf rrd.CF, start, end time.Time) (*rrd.Series, error)
	LastKnown(cf rrd.CF) (float64, time.Time)
	Last() time.Time
	Updates() uint64
	WriteTo(w io.Writer) (int64, error)
}

// archiveStore owns the branch|policy → archive map. lookup and ensure pin
// the returned archive: the caller must invoke the release function when
// done so a disk store can close evicted handles safely (for the memory
// store release is a no-op).
type archiveStore interface {
	lookup(key string) (archiveDB, func(), bool)
	ensure(key string, cp *compiledPolicy, start time.Time) (archiveDB, func(), error)
	keys() []string // sorted
	count() int
	// sync makes the archives durable (disk: flush state, fsync).
	sync() error
	close() error
}

func releaseNothing() {}

// --- in-memory backend ---

// memoryShard is one stripe of the in-memory archive map.
type memoryShard struct {
	mu  sync.Mutex
	dbs map[string]*rrd.DB
}

type memoryStore struct {
	shards []memoryShard
}

// archiveShards is the stripe count of the branch|policy → archive map.
const archiveShards = 16

func newMemoryStore() *memoryStore {
	s := &memoryStore{shards: make([]memoryShard, archiveShards)}
	for i := range s.shards {
		s.shards[i].dbs = make(map[string]*rrd.DB)
	}
	return s
}

func (s *memoryStore) shardFor(key string) *memoryShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

func (s *memoryStore) lookup(key string) (archiveDB, func(), bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	db, ok := sh.dbs[key]
	sh.mu.Unlock()
	if !ok {
		return nil, releaseNothing, false
	}
	return db, releaseNothing, true
}

func (s *memoryStore) ensure(key string, cp *compiledPolicy, start time.Time) (archiveDB, func(), error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if db, ok := sh.dbs[key]; ok {
		return db, releaseNothing, nil
	}
	db, err := rrd.NewFromPolicy(start.Add(-cp.Archive.Step), cp.Name, cp.Archive)
	if err != nil {
		return nil, releaseNothing, err
	}
	sh.dbs[key] = db
	return db, releaseNothing, nil
}

// insert places a restored archive (snapshot load path).
func (s *memoryStore) insert(key string, db *rrd.DB) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.dbs[key] = db
	sh.mu.Unlock()
}

func (s *memoryStore) keys() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.dbs {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

func (s *memoryStore) count() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.dbs)
		sh.mu.Unlock()
	}
	return n
}

func (s *memoryStore) sync() error  { return nil }
func (s *memoryStore) close() error { return nil }

// --- disk backend ---

// diskEntry is one open archive handle in the LRU.
type diskEntry struct {
	key  string
	db   *rrdfile.DB
	refs int
	elem *list.Element
	// evicted handles have left the map; the last release closes them.
	evicted bool
}

// diskStore keeps every archive in its own paged file under dir and at
// most maxOpen handles open, recently-used first. An archive not open is
// just a file — lookup reopens it lazily. No per-series state is held in
// memory (existence is the filesystem, the population is a counter, key
// listings scan the directory on demand), so RSS is bounded by the LRU
// cap alone, independent of how many series exist.
type diskStore struct {
	dir     string
	maxOpen int

	mu     sync.Mutex
	open   map[string]*diskEntry
	lru    *list.List // front = most recently used
	series int        // archive files on disk (gauges, Stats)
}

const defaultOpenFiles = 64

func newDiskStore(dir string, maxOpen int) (*diskStore, error) {
	if maxOpen <= 0 {
		maxOpen = defaultOpenFiles
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: archive dir: %w", err)
	}
	s := &diskStore{
		dir:     dir,
		maxOpen: maxOpen,
		open:    make(map[string]*diskEntry),
		lru:     list.New(),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("depot: scan archives: %w", err)
	}
	for _, e := range entries {
		if archiveKeyFromName(e) != "" {
			s.series++
		}
	}
	return s, nil
}

// archiveKeyFromName maps a directory entry back to its series key, or ""
// when the entry is not an archive file.
func archiveKeyFromName(e os.DirEntry) string {
	if e.IsDir() || !strings.HasSuffix(e.Name(), ".rrd") {
		return ""
	}
	key, err := url.QueryUnescape(strings.TrimSuffix(e.Name(), ".rrd"))
	if err != nil {
		return "" // not one of ours
	}
	return key
}

// path maps a series key to its file. Keys contain branch separators and
// arbitrary macro-expanded text, so the name is query-escaped (reversible,
// directory-safe).
func (s *diskStore) path(key string) string {
	return filepath.Join(s.dir, url.QueryEscape(key)+".rrd")
}

// pin bumps an entry to the front and takes a reference. Callers hold s.mu.
func (s *diskStore) pin(e *diskEntry) (archiveDB, func()) {
	e.refs++
	s.lru.MoveToFront(e.elem)
	return e.db, func() { s.release(e) }
}

func (s *diskStore) release(e *diskEntry) {
	s.mu.Lock()
	e.refs--
	closeNow := e.evicted && e.refs == 0
	s.mu.Unlock()
	if closeNow {
		e.db.Close()
	}
}

// evictLocked closes least-recently-used unpinned handles until the cap
// holds. Pinned handles are skipped — the cap may be exceeded briefly —
// and caught by the next admission's sweep.
func (s *diskStore) evictLocked() {
	for elem := s.lru.Back(); elem != nil && len(s.open) > s.maxOpen; {
		prev := elem.Prev()
		e := elem.Value.(*diskEntry)
		if e.refs == 0 {
			s.lru.Remove(elem)
			delete(s.open, e.key)
			e.evicted = true
			e.db.Close()
		}
		elem = prev
	}
}

func (s *diskStore) lookup(key string) (archiveDB, func(), bool) {
	s.mu.Lock()
	if e, ok := s.open[key]; ok {
		db, rel := s.pin(e)
		s.mu.Unlock()
		return db, rel, true
	}
	db, rel, err := s.admitLocked(key, nil, time.Time{})
	s.mu.Unlock()
	if err != nil {
		return nil, releaseNothing, false
	}
	return db, rel, true
}

func (s *diskStore) ensure(key string, cp *compiledPolicy, start time.Time) (archiveDB, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.open[key]; ok {
		db, rel := s.pin(e)
		return db, rel, nil
	}
	return s.admitLocked(key, cp, start)
}

// admitLocked opens (or, given a policy, creates) the archive file for key
// and installs it in the LRU. Called with s.mu held; the open/create I/O
// runs with the lock held, which is acceptable because a warm LRU makes
// admission rare.
func (s *diskStore) admitLocked(key string, cp *compiledPolicy, start time.Time) (archiveDB, func(), error) {
	db, err := rrdfile.Open(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		if cp == nil {
			return nil, releaseNothing, fmt.Errorf("depot: no archive for %s", key)
		}
		db, err = rrdfile.CreateFromPolicy(s.path(key), start.Add(-cp.Archive.Step), cp.Name, cp.Archive)
		if err == nil {
			s.series++
		}
	}
	if err != nil {
		return nil, releaseNothing, err
	}
	e := &diskEntry{key: key, db: db}
	e.elem = s.lru.PushFront(e)
	s.open[key] = e
	// Pin before sweeping so the new entry cannot evict itself.
	dbi, rel := s.pin(e)
	s.evictLocked()
	return dbi, rel, nil
}

// keys scans the archive directory — a cold path (snapshots, the series
// listing endpoint), deliberately not cached so the store holds no
// per-series memory.
func (s *diskStore) keys() []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		if key := archiveKeyFromName(e); key != "" {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

func (s *diskStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series
}

// sync flushes every open archive to stable storage. Closed archives were
// fsynced when their handle was evicted, so after sync returns the whole
// store is durable.
func (s *diskStore) sync() error {
	s.mu.Lock()
	open := make([]*diskEntry, 0, len(s.open))
	for _, e := range s.open {
		e.refs++
		open = append(open, e)
	}
	s.mu.Unlock()
	var first error
	for _, e := range open {
		if err := e.db.Sync(); err != nil && first == nil {
			first = err
		}
		s.release(e)
	}
	return first
}

func (s *diskStore) close() error {
	s.mu.Lock()
	open := make([]*diskEntry, 0, len(s.open))
	for _, e := range s.open {
		e.evicted = true
		open = append(open, e)
	}
	s.open = make(map[string]*diskEntry)
	s.lru.Init()
	s.mu.Unlock()
	var first error
	for _, e := range open {
		if e.refs == 0 {
			if err := e.db.Close(); err != nil && first == nil {
				first = err
			}
		}
		// Pinned entries close on their last release.
	}
	return first
}

// openHandles reports the number of open file handles (tests, gauges).
func (s *diskStore) openHandles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}
