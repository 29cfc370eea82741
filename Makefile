GO ?= go

# Benchmarks covered by the smoke run and the JSON perf record: the
# query-pipeline and build micro-benchmarks the perf trajectory is held
# to, the bitvec merge and popcount-intersect kernels (Intersect matches
# IntersectionSize, IntersectionSizeSkewed, and the word-level
# IntersectWords kernel benchmark), the packed verification engine, and
# serialization, plus the serving subsystem (segmented query vs
# frozen-only, shard fan-out, online insert) and the write-ahead log
# (append path, batch framing, group commit).
BENCH_PATTERN ?= QueryPath|LSFTraversal|BuildSkewSearch|BuildChosenPath|Intersect|Verify|SerializeIndex|Segmented|Shard|WAL|PostingDecode|SegfileOpen|BloomSkip

# The JSON perf record for this PR's benchmark snapshot, the baseline it
# is guarded against, and the number of samples per benchmark (benchjson
# keeps the per-benchmark minimum — single-sample records were noisy
# enough to fake 18% swings on allocation-free kernels between PRs).
BENCH_OUT ?= BENCH_PR10.json
BENCH_PREV ?= BENCH_PR9.json
BENCH_COUNT ?= 5

.PHONY: all build vet test test-purego race fuzz bench bench-json bench-guard bench-obs-guard bench-e2e bench-e2e-compare docs test-fault test-obs e2e test-cluster test-storage loc

all: build vet test

# The documentation gate CI's docs job runs: every relative link and
# anchor in the markdown set must resolve (cmd/mdlint), and the godoc
# examples/CLIs must still compile so doc snippets cannot rot.
docs:
	$(GO) run ./cmd/mdlint README.md API.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md
	$(GO) build ./examples/... ./cmd/...

build:
	$(GO) build ./...

# Non-test Go lines per package and in total, counted with go list and
# wc alone: the size record a simplification is measured by.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | { \
		total=0; \
		while read -r pkg files; do \
			n=$$(cat $$files </dev/null | wc -l); \
			total=$$((total + n)); \
			printf '%7d %s\n' "$$n" "$$pkg"; \
		done; \
		printf '%7d total\n' "$$total"; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Same suite with the assembly kernels compiled out (purego build tag):
# proves the portable fallback path — what non-amd64 builds and
# pre-AVX2 CPUs run — stays green, not just compiled.
test-purego:
	$(GO) test -tags purego ./...

# Full suite under the race detector — the concurrency acceptance run
# for the serving subsystem (segment/server stress tests).
race:
	$(GO) test -race ./...

# The failure-path acceptance run: the fault-injection suite
# (internal/faultinject registry + the Fault* tests it arms) under the
# race detector — injected fsync errors must surface as ErrNotDurable,
# a failed checkpoint must leave recovery bit-identical, stalled shards
# must degrade to partial answers within the deadline, overload must
# shed with 429/503 instead of growing goroutines, and the replication
# faults (stalled feed, mid-stream disconnect, torn bootstrap snapshot,
# SIGKILLed primary) must all end in a follower bit-identical to the
# surviving state; and a preload whose checkpoint write fails must fail
# the daemon's start, then load whole on the next.
test-fault:
	$(GO) test -race -run 'Fault' ./internal/faultinject ./internal/segment ./internal/server ./internal/replica ./cmd/skewsimd

# The observability acceptance run: the metrics core under the race
# detector (concurrent registration + observation, exposition golden
# file), the instrumented-handler and stalled-shard metric tests, and
# the scrape parser behind `skewsim metrics` / `skewsim load
# -scrape-metrics`.
test-obs:
	$(GO) test -race ./internal/obs ./internal/promscrape ./cmd/skewsim
	$(GO) test -race -run 'Obs' ./internal/server

# Boot a real daemon, drive it with skewsim load, scrape and validate
# /metrics over the wire (see scripts/e2e_metrics.sh).
e2e:
	sh scripts/e2e_metrics.sh

# The failover acceptance run: boot a primary, a replicating follower,
# and a skewgate in front of both; load through the gateway, SIGKILL
# the primary, and require zero read errors after the probe interval
# plus a successful promotion that restores writes
# (see scripts/e2e_cluster.sh).
test-cluster:
	sh scripts/e2e_cluster.sh

# The beyond-RAM storage acceptance run: the differential suite (frozen
# blob reopened via mmap zero-copy and heap decode, compressed and
# plain, must answer bit-identically to the index that wrote it), the
# resident-budget tiering tests, the cold-segment compaction
# regression, the storage SIGKILL crash matrix (mid segment-file write,
# mid compaction sweep, mid demote/promote), the concurrent
# query-during-retier stress, and the snapshots that carry the same
# containers — all under the race detector.
test-storage:
	$(GO) test -race -run 'FrozenBlob|PostingCodec|Storage|TierRace|Bloom|Snapshot' ./internal/lsf ./internal/segment ./internal/mmapio

# Short fuzz smoke over the byte-level parsers and the intersect kernel
# (assembly vs portable differential). Each target gets a few seconds of
# mutation on top of the checked-in seeds. The two segment targets seed
# with a genuine ~10 KB container or snapshot, which the default 60 s
# minimization of each new input would spend the whole smoke shrinking
# (0 execs/s); -fuzzminimizetime 1s bounds it so they keep executing.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/dataio
	$(GO) test -run '^$$' -fuzz '^FuzzSerializeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/lsf
	$(GO) test -run '^$$' -fuzz '^FuzzPackedRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz '^FuzzIntersectKernel$$' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz '^FuzzPostingCodec$$' -fuzztime $(FUZZTIME) ./internal/lsf
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentHeader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/segment
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/segment

# Smoke-run the micro-benchmarks: one iteration each, with allocation
# counters, so CI catches benchmarks that stop compiling or crash
# without paying for statistically meaningful timings.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=1x ./...

# The measured run, converted to a machine-readable perf record
# ($(BENCH_OUT): name, min ns/op over $(BENCH_COUNT) samples, B/op,
# allocs/op, sample count, custom metrics per benchmark) so the
# benchmark trajectory can be diffed across PRs. Two steps, not a pipe,
# so a crashing benchmark fails the target instead of being swallowed
# by the converter's exit code; the raw benchmark log still reaches the
# terminal via benchjson's stderr passthrough.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=1x -count=$(BENCH_COUNT) ./... > bench.log
	$(GO) run ./cmd/benchjson < bench.log > $(BENCH_OUT); st=$$?; rm -f bench.log; exit $$st

# Regression gate: fail when a QueryPath benchmark in $(BENCH_OUT) is
# more than 25% slower than the previous PR's record. Serving and build
# benchmarks are tracked but not gated (too machine-sensitive for
# hosted runners).
bench-guard:
	$(GO) run ./cmd/benchguard -old $(BENCH_PREV) -new $(BENCH_OUT)

# Observability-overhead gate: the instrumented query path must stay
# within 5% of bare. The benchmark interleaves both paths per iteration
# and reports each side as a custom metric, so the comparison shares
# one run's cache and clock state — the only way a 5% bound survives
# shared runners (back-to-back runs drift ~10% by themselves).
bench-obs-guard:
	$(GO) test -run '^$$' -bench 'QueryPathInstrumented' -benchtime=8000x -count=$(BENCH_COUNT) ./internal/segment > bench_obs.log
	$(GO) run ./cmd/benchjson < bench_obs.log > BENCH_OBS.json; st=$$?; rm -f bench_obs.log; exit $$st
	$(GO) run ./cmd/benchguard -new BENCH_OBS.json \
		-within 'BenchmarkQueryPathInstrumented:instr-ns/op=BenchmarkQueryPathInstrumented:bare-ns/op' \
		-within-max 0.05
	rm -f BENCH_OBS.json

# The end-to-end benchmark (bench/README.md): the real daemon and
# gateway under all four workloads, seeds 1..E2E_RUNS, written as one
# record for `bench -compare`. E2E_FLAGS narrows a smoke run, e.g.
# E2E_FLAGS='-workload sparse-first -seconds 6'.
E2E_DIR ?= .bench_build/e2e
OUT ?= $(E2E_DIR)/head.json
E2E_RUNS ?= 10
E2E_FLAGS ?=
bench-e2e:
	mkdir -p $(dir $(OUT))
	$(GO) run ./bench -seed 1 -runs $(E2E_RUNS) $(E2E_FLAGS) -out $(OUT)

# Paired comparison against another commit, the way a claimed gain must
# be measured: BASE is checked out into a git worktree and built from
# there by its own bench, each seed runs once on either side with the
# side that goes first alternating (the sandbox's speed drifts over
# minutes), the per-seed records are merged (jq) and `bench -compare`
# applies BENCHMARK.json's bounds with BASE as the parent.
bench-e2e-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-e2e-compare BASE=<ref>" >&2; exit 2; }
	mkdir -p $(E2E_DIR)
	rm -f $(E2E_DIR)/base-*.json $(E2E_DIR)/head-*.json
	git worktree add --detach --force $(E2E_DIR)/base-tree $(BASE)
	out=$(abspath $(E2E_DIR)); st=0; \
	for i in $$(seq 1 $(E2E_RUNS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then tree=$$out/base-tree; else tree=.; fi; \
			(cd $$tree && $(GO) run ./bench -seed $$i -runs 1 $(E2E_FLAGS) -out $$out/$$side-$$i.json) || st=1; \
		done; \
	done; \
	git worktree remove --force $(E2E_DIR)/base-tree; \
	[ $$st -eq 0 ] || exit $$st; \
	for side in base head; do \
		jq -s '.[0] + {runs: (map(.runs) | add)}' $$out/$$side-*.json > $$out/$$side.json || exit 1; \
	done
	$(GO) run ./bench -compare $(E2E_DIR)/base.json $(E2E_DIR)/head.json
