# Test tiers. Tier-1 is the gate every change must keep green; the race
# tier additionally runs the full suite under the race detector, which
# exercises the parallel pipeline (internal/parallel, the rematch compile
# cache, the intern table, the sharded cluster/synth/transform paths, and
# the bounded streaming engine) with worker counts > 1. `gate` is the full
# pre-merge gate: tier-1 + race + coverage floors + a fuzz smoke pass.

GO ?= go

.PHONY: test race gate fmt-check run-patterns cover fuzz-smoke apply-parity profile-parity bench bench-profile obs-smoke bench-smoke cluster-smoke cluster-parity session-smoke flake-check

# Tier-1: vet + build + unit tests (ROADMAP.md contract).
test:
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

# Race tier: race-detector run of every package, including the
# worker-count determinism suite.
race:
	$(GO) vet ./... && $(GO) test -race ./...

# Full gate: gofmt cleanliness, the -run pattern guard, tier-1, race tier,
# per-package coverage floors, a 10s-per-target fuzz smoke over the seed
# corpora, the automaton-vs-reference apply-parity smoke, the
# profile-parity smoke, the metrics-overhead smoke test, the benchmark's
# own smoke test, and the cluster and session smokes.
gate: fmt-check run-patterns test race cover fuzz-smoke apply-parity profile-parity obs-smoke bench-smoke cluster-smoke session-smoke

# Formatting: every Go file in the tree must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Run-pattern guard: every alternative in the -run patterns of the smoke
# and parity targets below must name an existing test, so deleting or
# renaming a test cannot silently shrink a gate; the selftest shows the
# guard failing on a made-up name.
run-patterns:
	sh scripts/check_run_patterns.sh
	sh scripts/check_run_patterns_selftest.sh

# Apply-parity smoke: the byte-automaton engine must produce byte-identical
# output (rows, flagged indices, errors) to the retained backtracking
# engine over the 47-task benchmark suite, across chunk sizes and worker
# counts; and a live transformation's Run and Apply must equal the paper's
# interpreter and the loaded program at every repair stage, under the race
# detector.
apply-parity:
	$(GO) test -race -run 'TestAutomatonDifferentialBenchSuite|TestOneEngineSuiteWide' .

# Profile-parity smoke: the profile index — the one profiling plan — must
# emit hierarchies byte-identical to the reference per-row profiler across
# shard counts (1/4/16), worker counts (1/2/4/8), and append schedules,
# whether driven directly, through cluster.Profile, or through a session's
# create and appends; and a session grown by appends must equal a fresh
# session over the same column. All under the race detector.
profile-parity:
	$(GO) test -race -run 'TestShardedIndexMatchesReference|TestProfileMatchesReference|TestSessionAppendMatchesReference' ./internal/cluster
	$(GO) test -race -run 'TestAppendAndReprofileMatchesFresh' .

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
# zero-allocation tokenizer, the intern table, and the index-backed
# Profile against the pre-interning reference implementation.
bench-profile:
	$(GO) test -run xxx -bench 'BenchmarkTokenize|BenchmarkIntern|BenchmarkProfile' -benchmem \
		./internal/tokenize ./internal/intern ./internal/cluster

# Metrics-overhead smoke: the instrumented pipeline must stay within 5% of
# the metrics-frozen baseline (median of 21 paired reps over 20k phone
# rows; BenchmarkObsOverhead fails past the budget).
obs-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkObsOverhead$$' -benchtime 1x .

# Benchmark smoke: the bench/ module's own tests, which spawn clxd and
# clxproxy and require every request to return 200 and pass the output
# oracle. Keeps the benchmark and the daemon API from drifting apart.
bench-smoke:
	cd bench && $(GO) test ./...

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
# session-counter conservation in /v1/stats; two in-process nodes whose
# session and admission ledgers stay apart in /v1/stats and /metrics;
# and the /metrics family list of a fresh node. Under the race detector.
session-smoke:
	$(GO) test -race -count=1 \
		-run 'TestSessionSmoke|TestClusterSessionLoop|TestPerNodeRegistries|TestMetricsFamilies' \
		./internal/daemon ./internal/fleet

# Flake check (optional; not part of `gate`): every concurrency and
# conservation test 50 times under the race detector in shuffled order —
# the session store's lifecycle counters, the matcher cache's eviction
# books, exact stream-admission accounting, per-node ledgers of two
# in-process servers, and the cluster smoke's counter reconciliation. The gate runs each of them once; an invariant
# called "pinned" should hold here too.
flake-check:
	$(GO) test -race -count=50 -shuffle=on ./internal/sessionstore
	$(GO) test -race -count=50 -shuffle=on -run 'TestCacheEvictionConservation' ./internal/rematch
	$(GO) test -race -count=50 -shuffle=on \
		-run 'TestAdmissionStressExactAccounting|TestAdmissionContendedMix|TestAdmissionSlotReleasedOnDisconnect|TestPerNodeRegistries' \
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
