package loadgen

import (
	"inca/internal/branch"
	"inca/internal/depot"
)

// CacheStore adapts a depot.Cache to the workload Store interface.
type CacheStore struct {
	Cache depot.Cache
}

// Store implements Store.
func (c CacheStore) Store(id branch.ID, reportXML []byte) error {
	_, err := c.Cache.Update(id, reportXML)
	return err
}

// Size implements Store.
func (c CacheStore) Size() int { return c.Cache.Size() }

// DepotStore adapts a full depot (cache + archive path) to the
// workload Store interface.
type DepotStore struct {
	Depot *depot.Depot
}

// Store implements Store.
func (d DepotStore) Store(id branch.ID, reportXML []byte) error {
	_, err := d.Depot.Store(id, reportXML)
	return err
}

// Size implements Store.
func (d DepotStore) Size() int { return d.Depot.Cache().Size() }
