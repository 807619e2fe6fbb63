package depot

import "inca/internal/branch"

// NullCache accepts and discards every report: Update succeeds without
// storing anything and queries answer "not found". It backs archive-only
// depots, and the benchmarks that time the archival phase of Store apart
// from the cache insert.
type NullCache struct{}

// Update discards the report. It reports added=false so Depot counters
// still advance (Store counts receipt, not cache growth).
func (NullCache) Update(id branch.ID, reportXML []byte) (bool, error) { return false, nil }

// Query reports no entry for any identifier.
func (NullCache) Query(id branch.ID) ([]byte, bool, error) { return nil, false, nil }

// Reports returns no stored reports.
func (NullCache) Reports(prefix branch.ID) ([]Stored, error) { return nil, nil }

// Dump returns an empty cache document.
func (NullCache) Dump() []byte { return []byte("<cache></cache>") }

// Size returns 0.
func (NullCache) Size() int { return 0 }

// Count returns 0.
func (NullCache) Count() int { return 0 }

// Generation returns 0: the document never changes, so one validator is
// correct forever.
func (NullCache) Generation() uint64 { return 0 }
