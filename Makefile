# Test tiers. Tier-1 is the gate every change must keep green; the race
# tier additionally runs the full suite under the race detector, which
# exercises the parallel pipeline (internal/parallel, the rematch compile
# cache, the intern table, the sharded cluster/synth/transform paths, and
# the bounded streaming engine) with worker counts > 1. `gate` is the full
# pre-merge gate: tier-1 + race + coverage floors + a fuzz smoke pass.

GO ?= go

.PHONY: test race gate fmt-check cover fuzz-smoke apply-parity profile-parity bench bench-profile bench-check pipeline profile bench-store bench-stream bench-obs obs-smoke bench-apply load-smoke bench-load cluster-smoke cluster-parity session-smoke flake-check

# Tier-1: vet + build + unit tests (ROADMAP.md contract).
test:
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

# Race tier: race-detector run of every package, including the
# worker-count determinism suite.
race:
	$(GO) vet ./... && $(GO) test -race ./...

# Full gate: gofmt cleanliness, tier-1, race tier, per-package coverage
# floors, a 10s-per-target fuzz smoke over the seed corpora, the
# automaton-vs-reference apply-parity smoke, the metrics-overhead smoke
# test, the load-harness smoke, and the cluster smoke.
gate: fmt-check test race cover fuzz-smoke apply-parity profile-parity obs-smoke load-smoke cluster-smoke session-smoke

# Formatting: every Go file in the tree must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Apply-parity smoke: the byte-automaton engine must produce byte-identical
# output (rows, flagged indices, errors) to the retained backtracking
# engine over the 47-task benchmark suite, across chunk sizes and worker
# counts, under the race detector.
apply-parity:
	$(GO) test -race -run 'TestAutomatonDifferentialBenchSuite' .

# Profile-parity smoke: the sharded, mergeable, incremental profile index
# must emit byte-identical hierarchies to the reference per-row profiler
# across shard counts (1/4/16), worker counts (1/2/4/8), and append
# schedules (all-at-once vs four increments), under the race detector.
profile-parity:
	$(GO) test -race -run 'TestShardedIndexMatchesReference|TestProfileAutoCollapse' ./internal/cluster

# Coverage floors: every package listed in scripts/cover_floors.txt must
# stay at or above its floor.
cover:
	sh scripts/check_cover.sh

# Fuzz smoke: every fuzz target gets FUZZTIME (default 10s) of
# coverage-guided fuzzing on top of its seed corpus.
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# Parallel-pipeline micro-benchmarks (worker-count sweep).
bench:
	$(GO) test -run xxx -bench 'BenchmarkParallel' -benchmem .

# Profile hot-path micro-benchmarks with allocation tracking: the
# zero-allocation tokenizer, the intern table, and the counted profile
# path against the pre-interning reference implementation.
bench-profile:
	$(GO) test -run xxx -bench 'BenchmarkTokenize|BenchmarkIntern|BenchmarkProfile' -benchmem \
		./internal/tokenize ./internal/intern ./internal/cluster

# Regenerate BENCH_pipeline.json (serial-vs-parallel stage timings).
pipeline:
	$(GO) run ./cmd/clxbench -exp pipeline

# Regenerate BENCH_profile.json (counted-profile phase breakdown,
# rows/sec, allocs/row, distinct-pattern ratio, incremental-append
# speedup; GOMAXPROCS pinned per worker count).
profile:
	$(GO) run ./cmd/clxbench -exp profile

# Bench regression check (optional; not part of `gate` — medians on shared
# hardware are too noisy to gate merges on): re-measure the profile
# experiment and fail if rows/sec lands more than 15% below the checked-in
# BENCH_profile.json for any worker count.
bench-check:
	$(GO) run ./cmd/clxbench -exp profile -profile-out '' -profile-baseline BENCH_profile.json

# Regenerate BENCH_store.json (program registry: synthesize-and-register
# vs apply-by-id, cold vs warm matcher cache).
bench-store:
	$(GO) run ./cmd/clxbench -exp store

# Regenerate BENCH_stream.json (streaming bulk apply vs in-memory
# Transform: rows/sec and allocs/row at 10k/100k/1M rows, workers 1/2/4/8).
bench-stream:
	$(GO) run ./cmd/clxbench -exp stream

# Regenerate BENCH_obs.json (observability-layer overhead: instrumented vs
# metrics-frozen pipeline and streaming apply on the 20k-row corpus).
bench-obs:
	$(GO) run ./cmd/clxbench -exp obs

# Regenerate BENCH_apply.json (byte-automaton vs backtracking reference
# apply engine: streamed rows/sec and allocs/row at 10k/100k/1M rows,
# workers 1/4/8, median of 5).
bench-apply:
	$(GO) run ./cmd/clxbench -exp apply

# Metrics-overhead smoke: the instrumented pipeline must stay within 5% of
# the metrics-frozen baseline (clxbench exits non-zero past the budget).
# The report lands in a scratch file so the committed BENCH_obs.json only
# changes when bench-obs is run deliberately.
obs-smoke:
	$(GO) run ./cmd/clxbench -exp obs -obs-out /tmp/BENCH_obs_smoke.json

# Load-harness smoke: a fixed-seed open-loop run from internal/loadgen
# against the in-process daemon handler — zero transport errors, every
# arrival accounted for as 200 or 429, generous p99 budget. Keeps the
# load harness and the daemon API from drifting apart.
load-smoke:
	$(GO) test -race -count=1 -run 'TestLoadSmoke' ./internal/daemon

# Cluster smoke: a fixed workload through an in-process 2-node cluster
# (leader + WAL-replicated follower behind the routing proxy), reconciled
# counter-by-counter — replication ships vs applies, proxy picks vs
# requests, per-node admission decisions vs observed 200/429s — all
# exact, under the race detector.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterSmoke' ./internal/fleet

# Session smoke: the full stateful-session loop over HTTP — create,
# clusters, append, label, ranked repair candidates, pick, commit —
# ending in byte-parity between the committed program's
# /v1/programs/{id}/apply output and the library path, plus exact
# session-counter conservation in /v1/stats, under the race detector.
session-smoke:
	$(GO) test -race -count=1 -run 'TestSessionSmoke|TestClusterSessionLoop' \
		./internal/daemon ./internal/fleet

# Flake check (optional; not part of `gate`): every concurrency and
# conservation test 50 times under the race detector in shuffled order —
# the session store's lifecycle counters, the matcher cache's eviction
# books, exact stream-admission accounting, and the cluster smoke's
# counter reconciliation. The gate runs each of them once; an invariant
# called "pinned" should hold here too.
flake-check:
	$(GO) test -race -count=50 -shuffle=on ./internal/sessionstore
	$(GO) test -race -count=50 -shuffle=on -run 'TestCacheEvictionConservation' ./internal/rematch
	$(GO) test -race -count=50 -shuffle=on \
		-run 'TestAdmissionStressExactAccounting|TestAdmissionContendedMix|TestAdmissionSlotReleasedOnDisconnect' \
		./internal/daemon
	$(GO) test -race -count=50 -shuffle=on -run 'TestClusterSmoke' ./internal/fleet

# Cluster parity, full matrix: every routing policy × node count {1,2,4}
# over the whole benchmark suite, asserting byte-identical apply and
# apply/stream responses against a single-node reference, plus the fault
# suite (follower killed mid-replication, routed node killed mid-stream).
# Not part of `gate` — minutes, not seconds; run before replication or
# routing changes merge.
cluster-parity:
	CLX_CLUSTER_PARITY=full $(GO) test -race -count=1 -timeout 1800s \
		-run 'TestCluster' .

# Regenerate BENCH_load.json: build the daemon, then let clxload spawn it
# per phase — a 3-rate sweep (median of 3), a knee search for the p99 SLO,
# and the semaphore-vs-tokenbucket A/B under bursty stream-only arrivals
# with exact 200/429 reconciliation against /v1/stats.
bench-load:
	$(GO) build -o /tmp/clxd-bench ./cmd/clxd
	$(GO) run ./cmd/clxload -clxd /tmp/clxd-bench -rates 100,200,400 \
		-duration 3s -reps 3 -max-streams 4 \
		-knee -slo-p99 250ms -knee-hi 6400 \
		-ab -ab-rate 3000 -out BENCH_load.json
