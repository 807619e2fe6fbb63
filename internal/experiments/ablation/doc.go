// Package ablation holds the paper's caches: StreamCache, the single XML
// document it deployed (Section 3.2.2), with its byte-level splice and the
// generic-SAX one; DOMCache (tried first and abandoned); FileCache (the
// deployed document written through to disk) and SplitCache (the planned
// improvement, Section 5.2.2). Each is a depot.Cache, admits reports through
// depot.EntryPayload (the generic splice writes every report with
// xmlscan.AppendCanonical), keeps stored payloads as they stand, and
// stores the bytes the stream cache does, which the cross-cache tables in
// internal/depot's external tests (caches_test.go) hold it to; the stream
// cache is in turn the byte oracle for depot.IndexedCache there. Besides
// those tests only the fig9 and query experiments and the root benchmarks
// import this package: no binary a deployment runs can select these caches
// (`make check` fences the import).
package ablation
