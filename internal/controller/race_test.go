//go:build race

package controller

// Under the race detector sync.Pool drops a share of what is put back, so
// an allocation count that depends on a pool (the envelope scratch buffer)
// is neither exact nor repeatable.
func init() { raceDetector = true }
