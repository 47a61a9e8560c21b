# Convenience targets for the timedpa reproduction.
#
# Check matrix (what `make check` runs and why):
#
#   target      command                          catches
#   ----------  -------------------------------  ----------------------------------
#   build       go build ./...                   compile errors across all packages
#   fmt         gofmt -l on tracked .go files    unformatted files (fails when any)
#   vet         go vet (+ staticcheck if found)  suspicious constructs, dead code
#   test        go test ./...                    unit + integration + fuzz seed corpus
#   test-race   go test -race ./...              data races in the sharded Monte
#                                                Carlo engine and checkpoint sink
#   bench-smoke go test -bench -benchtime=1x     benchmarks that stopped compiling
#                                                or assert a broken paper bound
#   chaos-smoke go test -race -run TestChaos     one seeded fault/kill/corruption
#                                                storm per chaos package
#   chaos-net-smoke go test -race TestChaosNetworkStorm  one seeded partition/
#                                                corruption network storm against
#                                                real coordinator + workers
#   fabric-smoke go test -run TestFabricSmoke    coordinator + 2 workers over
#                                                loopback reproduce the exact
#                                                single-process estimate
#   trace-smoke simd local -trace-out | simtrace a traced run stopped emitting
#                                                spans or simtrace lost the
#                                                critical path
#   mdp-smoke   lrcheck + explorer-vs-oracle     the on-the-fly explorer or a
#               test + kernel agreement,         sparse solver diverging from
#               cone-order and determinism       the test oracle, the fixed-point
#               tests                            kernel from rationals, a tick
#                                                layer reading a value before it
#                                                is written, or an answer that
#                                                moves with the worker count
#   perfbench-check cd perfbench && go vet, go test  an internal API change that
#                                                breaks the benchmark module
#                                                (its own go.mod, so ./... skips it)
#   vuln        govulncheck (if installed)       known-vulnerable dependency use
#
# Performance regressions are gated separately by `make bench-diff`: it
# re-measures the engine benchmarks and diffs them against the committed
# BENCH_sim.json baseline with `benchjson -compare` (exit 1 when any
# metric moves >10% in the bad direction, the headline trials/s drops
# below the absolute TRIALS_FLOOR, the exact-engine states/s drops
# below STATES_FLOOR, its B/state rises above STATE_BYTES_CEIL, or the
# cold Monte Carlo cache's B/trial rises above COLD_BYTES_CEIL). It
# is not part of `make check`
# because a measurement run takes minutes; run it before committing
# changes to internal/sim, internal/prob or internal/obs.
#
# staticcheck and govulncheck are optional: the targets run them when they
# are on PATH and print a skip notice otherwise, so `make check` works on
# a bare Go toolchain. Longer fuzzing of the engine against adversarial
# policies is split out as `make fuzz` (FUZZTIME=30s by default) because
# it is open-ended; the fuzz seed corpus still runs in every plain
# `go test`.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test test-short test-race bench bench-smoke bench-json bench-diff vuln vet fmt fuzz chaos chaos-smoke chaos-net chaos-net-smoke fabric-smoke trace-smoke mdp-smoke perfbench-check check lrcheck experiments

# Benchmarks recorded in BENCH_sim.json and gated by bench-diff: the
# parallel-engine throughput row, the metrics- and span-overhead pairs,
# the cold-cache trial rows for the election and consensus case studies
# and for the mc-cold job (dining n=8, random policy), the exact-engine
# explore+solve row (the full product, symmetry hidden) and its sibling
# on the ring's quotient (what lrcheck runs), the paper-chain row (the
# five arrows through core.CheckAll), the expected-time solver row and
# the breaker-overhead row.
BENCH_GATE = BenchmarkParallelTrials|BenchmarkMetricsOverhead|BenchmarkSpanOverhead|BenchmarkElectionTrials|BenchmarkConsensusTrials|BenchmarkColdCache|BenchmarkExactEngine|BenchmarkQuotientEngine|BenchmarkPaperChain|BenchmarkExpectedTicks|BenchmarkBreakerOverhead

# Absolute throughput backstop for the headline engine benchmark,
# enforced by bench-diff on top of the relative 10% gate: the alias
# sampler + arena engine with the by-pointer policy
# view measures ~208k trials/s on the reference machine (5.7x the 36,431
# pre-alias baseline recorded in EXPERIMENTS.md); the floor sits below
# that to absorb machine noise while still catching any change that
# gives back the optimisation.
TRIALS_FLOOR = BenchmarkParallelTrials:trials/s=180000

# Absolute backstop for the exact engine: the on-the-fly CSR explorer
# plus the fixed-point composed-claim check sustains ~90k states/s on
# the dining n=3 k=2 product at -cpu 1 (~115k at two CPUs; reference
# machine), against ~25k with big.Rat sweeps; the floor catches a return
# to big.Rat sweeps or to per-state map interning.
STATES_FLOOR = BenchmarkExactEngine:states/s=70000

# Absolute ceiling on the exact engine's transition structure: the CSR
# of the dining n=3 k=2 product takes 40.8 B/state (a branch stores a
# 4-byte target and a 1-byte probability index), against 86.1 when
# every branch kept its probability as a float64 and a prob.Rat. Unlike
# the timing rows, B/state does not depend on the host; benchjson gates
# B/ units as costs, so this bound is a ceiling.
STATE_BYTES_CEIL = BenchmarkExactEngine:B/state=45

# Absolute ceiling on what the Monte Carlo compile cache retains: the
# mc-cold job's live heap per trial (dining n=8, random policy, 3,000
# trials on a fresh cache, two collections). An interned state keeps its
# counts, ready lists and outcome records: 6.2 KB/trial, against 16.6
# KB/trial when every state also kept the model's steps for all 2n
# process slots. Like B/state it does not depend on the host.
COLD_BYTES_CEIL = BenchmarkColdCache:B/trial=8000

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The Monte Carlo engine shards trials across goroutines; the race
# detector runs as part of tier-1 verification.
test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or whose asserted paper bounds broke, without paying for a full
# measurement run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Machine-readable benchmark artifact: the engine benchmarks named in
# BENCH_GATE (the metrics-overhead pair's equal allocs/op columns prove
# the telemetry hook allocates nothing per trial), post-processed from
# the `go test -json` stream into BENCH_sim.json by cmd/benchjson.
# Rows are recorded at -cpu 1: a run at GOMAXPROCS=k names every row
# with a -k suffix, which would match no baseline row.
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchmem -cpu 1 -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Perf-regression gate: re-measure the gated benchmarks into a temp file
# and diff against the committed baseline; exits non-zero when any
# metric regressed more than 10%. Measured at -cpu 1, like the baseline,
# so every row has a baseline to compare with.
bench-diff:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchmem -cpu 1 -json . \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_sim.json /tmp/bench_new.json -threshold 0.10 -floor '$(TRIALS_FLOOR)' -floor '$(STATES_FLOOR)' -floor '$(STATE_BYTES_CEIL)' -floor '$(COLD_BYTES_CEIL)'

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet still ran)"; \
	fi

# Lists the tracked Go files gofmt would change and fails when there are
# any. Only tracked files: build trees under .bench_build are not walked.
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt: no tracked Go files"; exit 1; }; \
	out=$$(gofmt -l $$files); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Fuzz the engine and the artifact layer. Each -fuzz run is a separate
# invocation (Go allows one fuzz target per run):
#   RunOnceAdversarial  adversarial policies: typed errors, never a crash
#   AliasPick           random distributions: alias measure matches the scan, draws stay in the support
#   DistBuild           byte-built outcomes: NewDist, MapDist and Uniform match a map-keyed reference
#   LoadCheckpointSet   hostile checkpoint bytes: ErrCorruptArtifact, never a panic
#   ReadManifest        hostile manifest JSONL: ErrCorruptManifest, never a panic
#   ReachKernels        random tick MDPs: the strategy from every state, on fixed point
#                       or rationals, holds the plain rational recursion's values and choices
#   ExploreMatchesDense random automata: the explorer builds the test oracle's MDP,
#                       with the queue cut into chunks of one and three states
#   ExpectedTicksMatchesOracle  random tick MDPs, Zeno ones included: the sweep
#                       program's expected ticks equal the reference value iteration's, bit for bit
#   Prob0EMatchesOracle random tick MDPs: the worklist Prob0E and MinProbOne equal the pass loop's
#   WorstWithinTicksMatchesOracle  random tick MDPs and source masks: the cone solve's
#                       optima, strategy and witness match the plain rational recursion
#   SetExtents          random predicates, universes and unions of unions: memoized set
#                       extents answer Subset, Equal, Count, Witness and Mask as per-state loops do
#   RingSymmetry        random reachable dining product states (n=2..5, k=1..3) and ring
#                       symmetries: canonical forms, orbit sizes, named sets and successor
#                       distributions are the same on every member of an orbit
fuzz:
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzRunOnceAdversarial -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzAliasPick -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzDistBuild -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzLoadCheckpointSet -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/obs -run='^$$' -fuzz=FuzzReadManifest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mdp -run='^$$' -fuzz=FuzzReachKernels -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mdp -run='^$$' -fuzz=FuzzExploreMatchesDense -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mdp -run='^$$' -fuzz=FuzzExpectedTicksMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mdp -run='^$$' -fuzz=FuzzProb0EMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mdp -run='^$$' -fuzz=FuzzWorstWithinTicksMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzSetExtents -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dining -run='^$$' -fuzz=FuzzRingSymmetry -fuzztime=$(FUZZTIME)

# Chaos packages: seeded fault/kill/corruption storms against the
# artifact layer (in-process, injected filesystem faults) and the real
# CLIs (SIGKILLed subprocesses). Failures print the storm seed; replay
# with CHAOS_SEED=<seed>.
CHAOS_PKGS = ./internal/sim ./cmd/lrsim ./cmd/electcheck ./cmd/simd
CHAOS_STORMS ?= 8

# The full chaos suite: many storms per package, race detector on.
# (Includes the network storm via the TestChaos pattern.)
chaos:
	CHAOS_STORMS=$(CHAOS_STORMS) $(GO) test -race -run 'TestChaos' -v $(CHAOS_PKGS)

# One race-enabled storm per package; cheap enough to gate every check.
# The network storm is skipped here — it has its own smoke target below,
# so each gate stays attributable when one fails.
chaos-smoke:
	CHAOS_STORMS=1 $(GO) test -race -run 'TestChaos' -skip 'TestChaosNetwork' -count=1 $(CHAOS_PKGS)

# Network-adversary chaos: seeded fault-injecting transports (latency,
# drops, 5xx, corruption, truncation, slow-drip, corrupt-on-send) plus a
# mid-job partition, against real coordinator + worker processes with
# hedging, quarantine and breakers on. Failures print the storm seed;
# replay with CHAOS_SEED=<seed>.
chaos-net:
	CHAOS_STORMS=$(CHAOS_STORMS) $(GO) test -race -run 'TestChaosNetworkStorm' -count=1 -v ./cmd/simd

# One race-enabled network storm; gates every check.
chaos-net-smoke:
	CHAOS_STORMS=1 $(GO) test -race -run 'TestChaosNetworkStorm' -count=1 ./cmd/simd

# Distributed-fabric smoke: a coordinator plus two in-process workers
# over loopback HTTP must reproduce the single-process estimate exactly.
# Sub-second, so it gates every check; the SIGKILL recovery and resume
# paths run in the ./cmd/simd process tests and the chaos storms.
fabric-smoke:
	$(GO) test ./internal/fabric -run 'TestFabricSmoke' -count=1 -v

# Tracing smoke: a traced local run must produce a trace that simtrace
# merges into a timeline with a non-empty critical path. Catches the
# span exporter or the timeline analysis silently breaking.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/simd local -model dining -n 3 -trials 256 -seed 7 -trace-out "$$tmp/run.trace" >/dev/null && \
	$(GO) run ./cmd/simtrace "$$tmp/run.trace" > "$$tmp/report.txt" && \
	grep -q 'critical path (' "$$tmp/report.txt" && \
	! grep -q 'critical path (0 hops' "$$tmp/report.txt" && \
	echo "trace-smoke: ok (critical path present)"

# Exact-engine smoke: one end-to-end lrcheck run through the on-the-fly
# CSR explorer and the sparse solvers (all five arrows, the
# composed claim with its strategy and the witness walk over it, the
# expected-time sweep), the explorer against the test oracle
# (internal/mdp/oracle_test.go, which numbers states by pa.Reachable) on
# the election and the dining n=3 products (each dining product in full
# and as the ring's quotient, orbit sizes included), with the explorer's
# chunk size lowered so each crosses hundreds to thousands of chunk
# boundaries at one, two and eight workers, both tick kernels against
# the plain rational recursion on random tick MDPs, the tick cone's
# order (each layer's prefix writes every value before reading it), every
# solver's answers on the dining n=3 k=1 product explored at one, two
# and eight workers, the ring's quotient
# against its full product at n=3 k=1 (every printed number equal), and
# the witness solved on the quotient replayed step by step through the
# full product. Seconds, so it gates every check; the large-product runs
# live in the non-short tests and EXPERIMENTS.md E22.
mdp-smoke:
	$(GO) run ./cmd/lrcheck -n 3 -k 1 -workers 2 -witness >/dev/null && echo "mdp-smoke: lrcheck ok"
	$(GO) test -run 'TestExploreMatchesDenseElection' -count=1 ./internal/mdp
	$(GO) test -short -run 'TestExploreMatchesDenseDining' -count=1 ./internal/mdp
	$(GO) test -run 'TestReachKernels|TestTickConeOrder|TestParallelSweepDeterminism' -count=1 ./internal/mdp
	$(GO) test -run 'TestQuotientMatchesUnreduced/n=3,k=1$$|TestWitnessReplaysInFullProduct' -count=1 ./internal/dining

# The benchmark module (perfbench/, its own go.mod with replace repro =>
# ../) imports internal packages, so `go build ./...` at the root never
# compiles it. Vet and test it in place; `go build` would write a
# perfbench/perfbench binary into the tree.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build fmt vet test test-race bench-smoke chaos-smoke chaos-net-smoke fabric-smoke trace-smoke mdp-smoke perfbench-check vuln

# The headline reproduction: the paper's table, derivation and bounds.
lrcheck:
	$(GO) run ./cmd/lrcheck -n 3 -k 1 -curve 16

# Regenerate the artifacts recorded in EXPERIMENTS.md.
experiments:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
