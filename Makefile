GO ?= go

.PHONY: check loc fmt vet build fence flags test chaos metrics-smoke federation-smoke replication-smoke storage-smoke feed-smoke load-smoke bench-smoke bench-archive bench-merge bench-ingest bench-storage bench-feed bench-replication bench-load fuzz

# The full gate: formatting, static checks, build, the import and flag
# fences, race-enabled tests, the fault-injection suite, the telemetry
# smoke, the multi-process federation, storage, feed and load smokes, and
# a one-second run of the benchmark of record.
check: fmt vet build fence flags test chaos metrics-smoke federation-smoke replication-smoke storage-smoke feed-smoke load-smoke bench-smoke

# Non-test Go lines per package and in total, bench/ excluded: the figure
# the ROADMAP north star's deletion goal tracks, whichever item a PR serves.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Import fence: the binaries a deployment runs must not link
# internal/experiments/ablation, which holds all five of the paper's caches
# (stream, DOM, split, file, generic SAX) — only inca-bench, the experiments
# and the tests may.
fence:
	@deps="$$($(GO) list -deps ./cmd/inca-server ./cmd/inca-agent ./cmd/inca-consumer ./cmd/inca-reporter)" || exit 1; \
	if echo "$$deps" | grep -qx 'inca/internal/experiments/ablation'; then \
		echo "a deployed binary imports inca/internal/experiments/ablation"; exit 1; \
	fi

# Flag fence: README.md, DESIGN.md, EXPERIMENTS.md and the verify skill may
# name a flag in backticks (`-storage`, `-spool DIR`) only if the -h
# output of inca-server, inca-agent or another binary of this repo lists it,
# so a deleted flag cannot live on in the documents.
flags:
	@known="$$(for b in ./cmd/* ./bench; do $(GO) run $$b -h 2>&1; done | grep -oE '^  -[A-Za-z0-9-]+' | tr -d ' ')"; \
	grep -noE '(^|[[:space:](])`-[A-Za-z][A-Za-z0-9-]*' README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md | \
	while IFS= read -r hit; do f="-$${hit##*\`-}"; \
		echo "$$known" | grep -qxe "$$f" || echo "$${hit%:*}: no binary has the flag $$f"; \
	done | { ! grep .; }

test:
	$(GO) test -race ./...

# Fault-injection suite (DESIGN.md §5d): chaos-proxy tests proving zero
# report loss across resets, stalled acks, and controller restarts, plus
# the spool's and the wire sink's custody tests (an agent restart, a shed
# while a chunk is in flight), all under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestSpool|TestWireSink' -count=1 ./internal/wire/ ./internal/agent/

# Telemetry gate (DESIGN.md §5e): drive the full pipeline with one shared
# registry and lint the /metrics exposition for every stage's instruments;
# TestMetricsSmokeRouter does the same for the federation router's registry.
metrics-smoke:
	$(GO) test -race -run TestMetricsSmoke -count=1 .

# Federation gate (DESIGN.md §5f): a real -federate router in front of two
# real shard processes over TCP; one shard is killed mid-stream and the
# test proves every accepted report survives the re-route.
federation-smoke:
	INCA_FEDERATION_SMOKE=1 $(GO) test -race -run TestFederationSmoke -count=1 .

# Replication gate (DESIGN.md §5i): a -federate router with a -replicate
# follower behind one shard; the primary is SIGKILLed and the follower
# promoted via /federation/leave — the federated /reports must come back
# byte-identical with a zero-loss custody ledger.
replication-smoke:
	INCA_REPLICATION_SMOKE=1 $(GO) test -race -run TestReplicationSmoke -count=1 .

# Storage gate (DESIGN.md §5g): a real -storage disk server SIGKILLed
# twice (after a clean drain and mid-stream) with its WAL tail torn,
# restarted, and checkpointed — no acknowledged report or archive may be
# lost, and the torn tail must be truncated.
storage-smoke:
	INCA_STORAGE_SMOKE=1 $(GO) test -race -run TestStorageSmoke -count=1 .

# Feed gate (DESIGN.md §5h): a real inca-server and real inca-consumer
# -subscribe processes over TCP; the subscriber is killed mid-stream and
# a successor resumes from its cursor — every generation must be observed
# exactly once (changes or one catch-up snapshot, no gaps, no replays)
# and the pushed state must hash identically to the polled /cache.
feed-smoke:
	INCA_FEED_SMOKE=1 $(GO) test -race -run TestFeedSmoke -count=1 .

# Capacity gate (DESIGN.md §5j): the closed-loop load harness against a
# real spawned inca-server — a short single-mode ramp over real TCP that
# must complete all stages and detect the saturation knee, with the
# result round-tripped through the shared BENCH_*.json schema.
load-smoke:
	INCA_LOAD_SMOKE=1 $(GO) test -race -run TestLoadSmoke -count=1 .

# The benchmark of record for one second (it builds and spawns the real
# server and fails on its output checks: newest stored equals last acked,
# no leaked process), and one iteration of the archive tier.
bench-smoke:
	$(GO) run ./bench -workload ingest_small -seconds 1 -trace 0
	$(GO) test -run=NONE -bench=BenchmarkArchiveParallel4 -benchtime=1x .

# Archive tier: parallel Store throughput with five matching policies, on
# the memory engine and on the disk engine.
bench-archive:
	$(GO) test -run=NONE -bench=BenchmarkArchiveParallel -benchtime=1s .

# Merge tier (DESIGN.md §5f): the whole-cache and whole-report-list merges
# at the benchmark of record's working set (1024 x 851 B over two shards) —
# the byte-level plan, the plan concatenated, and the encoding/xml oracle.
bench-merge:
	$(GO) test -run=NONE -bench='BenchmarkMergeCache|BenchmarkMergeReports' -benchmem ./internal/federation/

# Ingest tier (DESIGN.md §5b, §5c): the cache insert of a report already in
# canonical form against one the insert must tokenise, and the archive's
# value extraction by scanner against the tokenising extractor it replaced,
# at the paper's smallest and largest report sizes (851 B, 45 527 B).
bench-ingest:
	$(GO) test -run=NONE -bench='BenchmarkUpdateCanonical|BenchmarkUpdateFallback' -benchmem ./internal/depot/
	$(GO) test -run=NONE -bench='BenchmarkExtractValues' -benchmem ./internal/report/

# Ten seconds of coverage-guided fuzzing per target: the canonical scanner
# against encoding/xml, the merge and the reports parser against the
# tokenising oracle, the insert's admission against the tokenising insert,
# the extractor against Parse + Find, the envelope escaper against
# xml.EscapeText, and the archive image reader and the wire frame and batch
# readers against their own writers (what is accepted re-serializes to the
# bytes it was read from). The seed
# corpora (f.Add plus testdata/fuzz) run under plain `go test`; `go test
# -fuzz` takes one target per invocation.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzScan$$' -fuzztime=10s ./internal/xmlscan/
	$(GO) test -run=NONE -fuzz='^FuzzMergeCache$$' -fuzztime=10s ./internal/federation/
	$(GO) test -run=NONE -fuzz='^FuzzParseReports$$' -fuzztime=10s ./internal/federation/
	$(GO) test -run=NONE -fuzz='^FuzzCanonical$$' -fuzztime=10s ./internal/depot/
	$(GO) test -run=NONE -fuzz='^FuzzExtractValues$$' -fuzztime=10s ./internal/report/
	$(GO) test -run=NONE -fuzz='^FuzzEncode$$' -fuzztime=10s ./internal/envelope/
	$(GO) test -run=NONE -fuzz='^FuzzReadDB$$' -fuzztime=10s ./internal/rrd/
	$(GO) test -run=NONE -fuzz='^FuzzReadMessage$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz='^FuzzReadBatch$$' -fuzztime=10s ./internal/wire/

# Storage tier (DESIGN.md §5g): memory vs disk engine across report
# ingest, archive updates at 10k/100k series (with the heap staying flat
# on disk), and restart recovery (WAL replay vs checkpoint vs snapshot);
# machine-readable result written to BENCH_storage.json.
bench-storage:
	$(GO) run ./cmd/inca-bench -experiment storage -json .

# Consumer tier (DESIGN.md §5h): N conditional pollers vs N /feed
# subscribers at 1..1024 consumers over real TCP — query-tier request
# rate and store-to-observe propagation percentiles, written to
# BENCH_feed.json.
bench-feed:
	$(GO) run ./cmd/inca-bench -experiment feed -json .

# Replication tier (DESIGN.md §5i): ingest overhead of the follower tee
# against the unreplicated router, and failover drain latency
# (promote + re-enqueue + redeliver); written to BENCH_replication.json.
bench-replication:
	$(GO) run ./cmd/inca-bench -experiment replication -json .

# Capacity tier (DESIGN.md §5j): the full DiPerF-style ramp — six stages
# of closed-loop clients against a spawned single-depot server and a
# 4-shard federated router, knee detection included; machine-readable
# curve written to BENCH_load.json.
bench-load:
	$(GO) run ./cmd/inca-bench -experiment load -json .
