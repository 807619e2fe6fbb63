// Package ablation holds the cache designs the paper weighed against the
// one it deployed: DOMCache (tried first and abandoned, Section 3.2.2),
// FileCache (the deployed single XML file, written through to disk) and
// SplitCache (the planned improvement, Section 5.2.2). Each is a
// depot.Cache built on depot.StreamCache's exported methods and stores the
// same bytes it does, which the cross-cache tables in internal/depot's
// external tests (caches_test.go) hold it to. Besides those tests only the
// fig9 experiment and the root benchmarks import this package: no binary a
// deployment runs can select these caches (`make check` fences the import).
package ablation
