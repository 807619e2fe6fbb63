package ablation

import (
	"fmt"
	"io"
	"os"
	"sync"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/journal"
)

var _ depot.Cache = (*FileCache)(nil)

// FileCache is the write-through variant of the stream cache: the document
// lives in "a single XML file" exactly as in the deployed system (Section
// 3.2.2), rewritten atomically (journal.AtomicWriteFile) on every update so a
// depot crash never loses acknowledged reports and never leaves a torn
// document. Reads are served from the in-memory copy.
type FileCache struct {
	mu    sync.Mutex
	path  string
	inner *StreamCache
}

// OpenFileCache loads (or creates) the cache file at path.
func OpenFileCache(path string) (*FileCache, error) {
	fc := &FileCache{path: path}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		inner, lerr := LoadStreamDump(data)
		if lerr != nil {
			return nil, fmt.Errorf("depot: cache file %s: %w", path, lerr)
		}
		fc.inner = inner
	case os.IsNotExist(err):
		fc.inner = NewStreamCache()
		if werr := fc.flushLocked(); werr != nil {
			return nil, werr
		}
	default:
		return nil, err
	}
	return fc, nil
}

// flushLocked writes the document atomically; callers hold fc.mu.
func (fc *FileCache) flushLocked() error {
	return journal.AtomicWriteFile(fc.path, func(w io.Writer) error {
		_, err := w.Write(fc.inner.Dump())
		return err
	})
}

// Update implements Cache with write-through persistence.
func (fc *FileCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	before := fc.inner.Dump()
	added, err := fc.inner.Update(id, reportXML)
	if err != nil {
		return false, err
	}
	if err := fc.flushLocked(); err != nil {
		// Roll back the in-memory copy so memory and disk stay consistent.
		restored, lerr := LoadStreamDump(before)
		if lerr == nil {
			fc.inner = restored
		}
		return false, fmt.Errorf("depot: cache write-through: %w", err)
	}
	return added, nil
}

// Query implements Cache.
func (fc *FileCache) Query(id branch.ID) ([]byte, bool, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.inner.Query(id)
}

// Reports implements Cache.
func (fc *FileCache) Reports(prefix branch.ID) ([]depot.Stored, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.inner.Reports(prefix)
}

// Dump implements Cache.
func (fc *FileCache) Dump() []byte {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.inner.Dump()
}

// Size implements Cache.
func (fc *FileCache) Size() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.inner.Size()
}

// Count implements Cache.
func (fc *FileCache) Count() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.inner.Count()
}

// Generation implements Cache.
func (fc *FileCache) Generation() uint64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.inner.Generation()
}

// Path returns the backing file.
func (fc *FileCache) Path() string { return fc.path }
