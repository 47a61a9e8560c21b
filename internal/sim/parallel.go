package sim

// This file is the Monte Carlo estimator: it shards a trial budget
// across a bounded worker pool while keeping seeded runs bit-identical
// for every worker count.
//
// Three design rules make that work:
//
//  1. Per-trial RNG. Trial i draws its coins from its own rand.Rand
//     seeded by a SplitMix64 mix of (Seed, i), so the random stream a
//     trial sees depends only on the root seed and the trial index —
//     never on which worker ran it or in what order.
//
//  2. Fixed chunking. Trials are grouped into fixed-size chunks
//     (parallelChunkSize, independent of Workers). Each chunk owns a
//     private accumulator that exactly one worker touches — no locks or
//     atomics on the hot path — and chunk accumulators are merged in
//     chunk order after the pool drains. Floating-point merge order is
//     therefore a function of the trial budget alone, so Summary moments
//     are bit-identical across worker counts.
//
//  3. First-error-wins cancellation. A failing trial (ErrPolicyDeserted,
//     ErrBadChoice, or an estimator-level failure) flips a stop flag that
//     the pool polls between trials; remaining work is abandoned promptly
//     and the error of the lowest-numbered failing chunk is returned,
//     wrapped with its trial index.
//
// On top of that sits the resilient run controller:
//
//   - Cancellation. Every entry point takes a context. When it is
//     cancelled (deadline, SIGINT, ...), workers stop claiming chunks but
//     drain the chunks they are on, so every started-and-finished chunk
//     is preserved; the run returns the merged partial estimate, a
//     RunReport with the trial count actually folded in, a resume token,
//     and ErrInterrupted.
//
//   - Panic quarantine. A trial that panics (in the policy, the model,
//     the target or observe) is recovered into a TrialPanicError naming
//     the trial index and its private RNG seed — a one-line repro — and
//     up to ParallelOptions.MaxPanics such trials are quarantined
//     (recorded, excluded from the estimate) before the run aborts.
//
//   - Telemetry. ParallelOptions.Metrics, when set, observes every trial
//     (step count, wall-time, outcome), chunk claim/commit, quarantine and
//     checkpoint save — the feed behind live progress reporting and run
//     manifests (internal/obs). The hook is observation-only and free when
//     unset: one nil check per trial, zero extra allocations.
//
//   - Checkpoint/resume. Because chunks merge deterministically in
//     order, the serialized accumulators of completed chunks are a
//     sufficient resume token: ParallelOptions.CheckpointSink persists
//     them as each chunk completes, and ParallelOptions.Resume restores
//     them so only missing chunks re-run — bit-identically, since each
//     trial's coins depend only on (Seed, trial index).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/stats"
)

// ErrInterrupted reports a run stopped by context cancellation before all
// trials completed. The accompanying accumulator and RunReport still carry
// the partial estimate over every completed chunk, and the report's
// Checkpoint is the resume token.
var ErrInterrupted = errors.New("sim: run interrupted")

// ParallelOptions configures the worker pool of the parallel estimators.
type ParallelOptions struct {
	// Workers bounds the number of concurrent trial-running goroutines;
	// <= 0 means GOMAXPROCS. Results are independent of Workers: only
	// wall-clock time changes.
	Workers int
	// Seed is the root seed from which every trial's private RNG is
	// derived. Two runs with equal Seed, trial budget and model are
	// bit-identical, whatever the worker count.
	Seed int64
	// MaxPanics is the panic quarantine budget: up to MaxPanics panicking
	// trials are recorded (see RunReport.Panics) and excluded from the
	// estimate before the run aborts with the offending TrialPanicError.
	// The default 0 aborts on the first panic. Panic records restored
	// from Resume count against the budget.
	MaxPanics int
	// Resume, when non-nil, restores the completed chunks of a previous
	// (interrupted) run with the same seed, trial budget and estimator,
	// so only the missing chunks are executed. The final estimate is
	// bit-identical to an uninterrupted run. A token from a different run
	// is rejected with ErrCheckpointMismatch.
	Resume *Checkpoint
	// CheckpointSink, when non-nil, receives the growing checkpoint
	// after every completed chunk. Calls are serialized by the engine;
	// the *Checkpoint is engine-owned and valid only for the duration of
	// the call (persist it — e.g. CheckpointSet.Save — rather than
	// retaining the pointer). A sink error aborts the run.
	CheckpointSink func(*Checkpoint) error
	// Metrics, when non-nil, receives the run's telemetry: each committed
	// chunk's step counts, outcomes and wall-time, chunk lifecycle,
	// quarantines and checkpoint saves. It observes only — the estimate
	// is bit-identical with or without it. When nil, the hot path pays
	// one nil check per trial and zero extra allocations (see Metrics).
	Metrics Metrics
	// TrialTimeout, when positive, arms the per-trial watchdog: a trial
	// that has not returned within this wall-clock budget is abandoned
	// and quarantined as a *TrialStalledError — recorded like a panic,
	// excluded from the estimate, counted against MaxPanics. Zero
	// disables the watchdog (and its per-trial goroutine overhead).
	// Watched trials run on fresh scratch and RNG instead of the
	// worker's arena: an abandoned trial's goroutine may still be
	// writing to them.
	TrialTimeout time.Duration
	// Clock is the watchdog's time source; nil means the wall clock.
	// Tests inject a fault.FakeClock to trip the watchdog without
	// sleeping.
	Clock fault.Clock
	// SpanHooks, when non-nil, observes the chunk lifecycle for tracing
	// (internal/obs/span): a span per claimed chunk, ended at commit or
	// abandonment. Cold path by construction — one call pair per
	// 64-trial chunk, nothing per trial; nil costs one nil check per
	// chunk (BenchmarkSpanOverhead).
	SpanHooks SpanHooks
	// PprofLabels, when non-empty, is an alternating key/value list
	// applied to every worker goroutine via pprof.Do, so CPU profiles
	// segment the trial hot loop by job/lease/chunk-range without
	// per-trial cost. Odd-length lists are rejected.
	PprofLabels []string
	// Chunks, when non-nil, restricts execution to the chunk index range
	// [Chunks.Lo, Chunks.Hi) of the full trial budget — the distribution
	// seam of the trial fabric (internal/fabric). A ranged run executes
	// only its chunks, and the returned RunReport.Checkpoint carries
	// exactly those chunk records; trial seeds, chunk boundaries and
	// accumulator bits are those of the full run, so ranges executed on
	// different machines reassemble into a checkpoint bit-identical to a
	// single-process run. The RunReport's Total/Completed then count the
	// range's trials, not the full budget. An empty range (Lo == Hi) runs
	// nothing and returns the run's identity (kind, seed, chunking)
	// alone.
	Chunks *ChunkRange

	// kind identifies the estimator (and its parameters) producing the
	// accumulators, so a checkpoint cannot be resumed into a different
	// estimator. Set by the Estimate*Parallel wrappers.
	kind string
}

func (o ParallelOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// parallelChunkSize is the number of consecutive trials that share one
// accumulator. It is a fixed constant — not a function of Workers — so
// the merge tree, and with it every floating-point rounding decision,
// is identical however many workers run the chunks. 64 trials is coarse
// enough to amortize chunk-claim overhead and fine enough to load-balance
// uneven trial costs. It is also the checkpoint granularity: an
// interrupted run loses at most the chunks still in flight.
const parallelChunkSize = 64

// ChunkRange is a half-open range [Lo, Hi) of chunk indices, the unit
// the trial fabric leases to remote workers (ParallelOptions.Chunks).
type ChunkRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// MaxTrials is the largest trial budget RunParallel accepts; a larger
// budget is ErrInvalidArgument, and fabric.NewRunner refuses a job past
// it before anything is sized by the job. The cap bounds what a run
// allocates up front: an accumulator, a done flag and an error slot per
// chunk of the executed range. An unranged run at the cap has
// NumChunks(MaxTrials) = 2^24 chunks, which with the largest built-in
// accumulator (stats.Summary, 40 B; 57 B a chunk with the flag and the
// error) is 2^24 × 57 B ≈ 0.96 GB, and a fabric coordinator's chunk
// table for such a job (a state byte and a 24-byte time per chunk) is
// 2^24 × 25 B ≈ 0.42 GB. A ranged run, such as a fabric lease, sizes
// its tables by its range alone.
const MaxTrials = 1 << 30

// NumChunks reports how many fixed-size chunks a parallel run with the
// given trial budget has — the index space ChunkRange addresses.
func NumChunks(trials int) int {
	return (trials + parallelChunkSize - 1) / parallelChunkSize
}

// chunkLenFor is the number of trials in the given chunk of a run with
// the given budget (the final chunk is ragged).
func chunkLenFor(trials, chunk int) int {
	lo := chunk * parallelChunkSize
	return min(lo+parallelChunkSize, trials) - lo
}

// trialSeed derives the private RNG seed of one trial from the root seed
// with a SplitMix64-style finalizer, so neighbouring trial indices get
// statistically independent streams (a raw seed+i would hand correlated
// states to math/rand's LFSR source).
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(trial)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// trialArena is one worker's reusable trial state: the view scratch and
// the RNG that every trial the worker runs reuses instead of allocating
// fresh ones, which makes the steady-state trial loop allocation-free.
// Reuse is invisible to results: runTrial fully resets the scratch, and
// (*rand.Rand).Seed restores exactly the state a fresh newTrialRNG(seed)
// would start with.
//
// The arena holds the scratch and the RNG source by value and ends in
// arenaPad bytes of padding. Every event writes the scratch's cur,
// pending and view fields and the source's state, so two workers'
// arenas must not share a cache line, nor the adjacent line that
// hardware prefetchers fetch in pairs: otherwise each event bounces
// those lines between the workers' cores. Holding the fields in one
// padded allocation keeps any two workers' per-event fields at least
// arenaPad bytes apart.
type trialArena[S comparable] struct {
	sc  viewScratch[S]
	src fastSource
	rng *rand.Rand // draws from src
	_   [arenaPad]byte
}

// arenaPad is the spare space that separates two workers' per-event
// fields: two 64-byte cache lines.
const arenaPad = 128

func newTrialArena[S comparable](cm *Compiled[S]) *trialArena[S] {
	ar := &trialArena[S]{}
	ar.sc.init(cm)
	ar.rng = rand.New(&ar.src)
	return ar
}

// runArenaTrial is RunOnce minus the per-trial allocations: one trial on
// a worker's arena scratch, with the same panic quarantine. Argument
// validation happened once in RunParallel; only the per-trial policy
// from mk can be newly nil here.
func runArenaTrial[S comparable](sc *viewScratch[S], p Policy[S], target func(S) bool, opts Options[S], rng *rand.Rand) (res Result[S], err error) {
	if p == nil {
		return res, fmt.Errorf("%w: nil policy", ErrInvalidArgument)
	}
	defer recoverTrialPanic(&err)
	err = runTrial(sc, p, target, opts, rng, &res)
	return res, err
}

// RunReport describes what a parallel run actually did — essential when
// the run ended early, since a partial estimate is only interpretable
// together with the trial count behind it (fewer trials mean wider
// confidence intervals, never a biased point estimate: the completed
// chunk set is independent of trial outcomes).
type RunReport struct {
	// Total is the requested trial budget.
	Total int
	// Completed is the number of trials whose observations are folded
	// into the returned accumulator (excludes quarantined trials).
	Completed int
	// Resumed is how many of the completed trials were restored from
	// ParallelOptions.Resume rather than re-run.
	Resumed int
	// Quarantined counts trials excluded from the estimate — panicking
	// trials plus trials abandoned by the watchdog; Panics has one record
	// per such trial, each naming the private RNG seed that replays the
	// crash (or the hang) in a single RunOnce (sim.ReproTrial).
	Quarantined int
	// Stalled is how many of the quarantined trials were watchdog
	// timeouts (PanicRecord.Kind == RecordStalled) rather than panics.
	Stalled int
	Panics  []PanicRecord
	// Interrupted reports that the run stopped before covering Total
	// trials; the error returned alongside matches ErrInterrupted.
	Interrupted bool
	// Checkpoint is the resume token covering every completed chunk.
	// Pass it as ParallelOptions.Resume (or persist it with
	// CheckpointSet.Save) to continue the run bit-identically.
	Checkpoint *Checkpoint
}

// String summarizes the report in one line.
func (r RunReport) String() string {
	s := fmt.Sprintf("%d/%d trials", r.Completed, r.Total)
	var notes []string
	if r.Resumed > 0 {
		notes = append(notes, fmt.Sprintf("%d restored from checkpoint", r.Resumed))
	}
	if panics := r.Quarantined - r.Stalled; panics > 0 {
		notes = append(notes, fmt.Sprintf("%d panicking trials quarantined", panics))
	}
	if r.Stalled > 0 {
		notes = append(notes, fmt.Sprintf("%d stalled trials quarantined", r.Stalled))
	}
	if r.Interrupted {
		notes = append(notes, "interrupted")
	}
	if len(notes) > 0 {
		s += " (" + strings.Join(notes, ", ") + ")"
	}
	return s
}

// runControl is the shared mutable state of the resilient controller: the
// growing checkpoint, the checkpoint sink, and the quarantine budget.
// All access is serialized by mu; workers touch it only at chunk
// completion and on panic, never on the per-trial hot path.
type runControl struct {
	mu        sync.Mutex
	cp        *Checkpoint
	sink      func(*Checkpoint) error
	metrics   Metrics // may be nil; notified after successful sink calls
	maxPanics int
	panics    int // quarantined so far (restored + this run), for the budget
}

// allowPanic consumes one unit of the quarantine budget; it reports false
// when the budget is exhausted and the run must abort.
func (rc *runControl) allowPanic() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.panics >= rc.maxPanics {
		return false
	}
	rc.panics++
	return true
}

// complete commits a finished chunk to the checkpoint: the serialized
// accumulator, any panics quarantined inside the chunk, and a sink
// notification. Only complete chunks are ever recorded, so a resume can
// trust every record it restores.
func (rc *runControl) complete(chunk int, acc any, panics []PanicRecord) error {
	raw, err := json.Marshal(acc)
	if err != nil {
		return fmt.Errorf("sim: marshaling chunk %d accumulator: %w", chunk, err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.cp.Chunks = append(rc.cp.Chunks, ChunkRecord{Index: chunk, Acc: raw})
	rc.cp.Panics = append(rc.cp.Panics, panics...)
	if rc.sink != nil {
		if err := rc.sink(rc.cp); err != nil {
			return fmt.Errorf("sim: checkpoint sink: %w", err)
		}
		if rc.metrics != nil {
			rc.metrics.CheckpointSaved()
		}
	}
	return nil
}

// RunParallel executes trials independent runs of the model under fresh
// policies from mk, sharded across a worker pool, and folds each Result
// into a per-chunk accumulator of type A via observe; chunk accumulators
// are merged in chunk order with merge and the total returned.
//
// observe is called from worker goroutines, but always on the private
// accumulator of the chunk being run — implementations need no locking as
// long as they only touch acc. mk must be safe for concurrent use; each
// policy it returns is used by exactly one trial. An error from a trial or
// from observe cancels the remaining work (first error wins) and is
// returned wrapped with its trial index, preserving errors.Is on
// ErrPolicyDeserted / ErrBadChoice.
//
// Cancellation of ctx does not discard completed work: workers drain the
// chunks they are running, and RunParallel returns the merged partial
// accumulator, a RunReport carrying the completed-trial count and a
// resume token, and an error matching ErrInterrupted. A panicking trial
// becomes a *TrialPanicError, quarantined under popts.MaxPanics.
// Checkpointing requires A to round-trip through encoding/json (the
// built-in estimator accumulators all do).
//
// The model is compiled first (Compile; a no-op for a model that already
// is), so a model that fails the purity spot check is rejected with
// ErrImpureModel before any trial runs. A model whose impurity the spot
// check missed ends the run with ErrImpureModel once a trial's sampler
// query answers another move count than the query that interned the
// state (Compiled.samplerSet), like any other trial error.
//
// The returned RunReport is meaningful on every path, including errors.
func RunParallel[S comparable, A any](ctx context.Context, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	trials int, opts Options[S], popts ParallelOptions,
	observe func(acc *A, trial int, res Result[S]) error,
	merge func(dst *A, src A)) (A, RunReport, error) {

	var total A
	rep := RunReport{Total: trials}
	if mk == nil {
		return total, rep, fmt.Errorf("%w: nil policy factory", ErrInvalidArgument)
	}
	if target == nil {
		return total, rep, fmt.Errorf("%w: nil target predicate", ErrInvalidArgument)
	}
	if trials <= 0 {
		return total, rep, fmt.Errorf("%w: trial budget %d is not positive", ErrInvalidArgument, trials)
	}
	if trials > MaxTrials {
		return total, rep, fmt.Errorf("%w: trial budget %d exceeds MaxTrials (%d)", ErrInvalidArgument, trials, MaxTrials)
	}
	if observe == nil {
		return total, rep, fmt.Errorf("%w: nil observe func", ErrInvalidArgument)
	}
	if merge == nil {
		return total, rep, fmt.Errorf("%w: nil merge func", ErrInvalidArgument)
	}
	if popts.MaxPanics < 0 {
		return total, rep, fmt.Errorf("%w: negative quarantine budget %d", ErrInvalidArgument, popts.MaxPanics)
	}
	if len(popts.PprofLabels)%2 != 0 {
		return total, rep, fmt.Errorf("%w: PprofLabels must alternate key,value (got %d entries)", ErrInvalidArgument, len(popts.PprofLabels))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Share one transition cache across all workers. Compile is
	// idempotent, so pre-compiled models (the CLIs and benchmarks reuse
	// one across calls to stay warm) pass straight through.
	cm, err := Compile(m)
	if err != nil {
		return total, rep, err
	}

	numChunks := NumChunks(trials)
	// The executed range defaults to every chunk; a fabric worker narrows
	// it to its lease. All bookkeeping below (claim loop, coverage check,
	// merge) runs over [loChunk, hiChunk) only.
	loChunk, hiChunk := 0, numChunks
	if popts.Chunks != nil {
		loChunk, hiChunk = popts.Chunks.Lo, popts.Chunks.Hi
		if loChunk < 0 || hiChunk > numChunks || loChunk > hiChunk {
			return total, rep, fmt.Errorf("%w: chunk range [%d, %d) outside [0, %d]", ErrInvalidArgument, loChunk, hiChunk, numChunks)
		}
	}
	rangeTrials := 0
	for c := loChunk; c < hiChunk; c++ {
		rangeTrials += chunkLenFor(trials, c)
	}
	rep.Total = rangeTrials
	// Per-chunk state covers the executed range only, indexed from
	// loChunk: a lease of a few chunks of a huge job stays small.
	accs := make([]A, hiChunk-loChunk)
	done := make([]bool, hiChunk-loChunk)
	errs := make([]error, hiChunk-loChunk)

	met := popts.Metrics
	rc := &runControl{
		cp: &Checkpoint{
			Version:   checkpointVersion,
			Kind:      popts.kind,
			Seed:      popts.Seed,
			Trials:    trials,
			ChunkSize: parallelChunkSize,
		},
		sink:      popts.CheckpointSink,
		metrics:   met,
		maxPanics: popts.MaxPanics,
	}
	if popts.Resume != nil {
		if err := popts.Resume.validateFor(popts.kind, popts.Seed, trials, parallelChunkSize); err != nil {
			return total, rep, err
		}
		// A record outside the range is still decoded (into a scratch
		// accumulator), so a corrupt token fails the same way whatever
		// range runs.
		var outside A
		for _, cr := range popts.Resume.Chunks {
			acc, inRange := &outside, cr.Index >= loChunk && cr.Index < hiChunk
			if inRange {
				acc = &accs[cr.Index-loChunk]
			}
			if err := json.Unmarshal(cr.Acc, acc); err != nil {
				return total, rep, fmt.Errorf("sim: restoring chunk %d accumulator: %w", cr.Index, err)
			}
			if inRange {
				done[cr.Index-loChunk] = true
				rep.Resumed += chunkLenFor(trials, cr.Index)
			}
		}
		rc.cp.Chunks = append(rc.cp.Chunks, popts.Resume.Chunks...)
		rc.cp.Panics = append(rc.cp.Panics, popts.Resume.Panics...)
		rc.panics = len(popts.Resume.Panics)
		if met != nil && rep.Resumed > 0 {
			met.TrialsRestored(rep.Resumed)
		}
	}

	var (
		nextChunk atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
	)

	clock := popts.Clock
	if clock == nil {
		clock = fault.Wall
	}

	// Defaults are resolved once here, not per trial: the arena path
	// calls runTrial directly, which expects them applied.
	opts = opts.withDefaults()

	// runChunk executes every trial of one unclaimed chunk and commits
	// the chunk on completion. A nil return with done[chunk] still false
	// means the chunk was abandoned because another chunk failed. ar is
	// the calling worker's private arena.
	runChunk := func(chunk int, ar *trialArena[S]) error {
		acc := &accs[chunk-loChunk]
		lo := chunk * parallelChunkSize
		hi := min(lo+parallelChunkSize, trials)
		var chunkPanics []PanicRecord
		var chunkCompleted int
		if popts.SpanHooks != nil {
			// One span per chunk, ended on every exit path — commit,
			// abandonment and error alike report what actually ran.
			endSpan := popts.SpanHooks.ChunkStart(chunk, hi-lo)
			defer func() { endSpan(chunkCompleted, len(chunkPanics)) }()
		}
		// The hook is fed whole chunks: per-trial outcomes accumulate in
		// chunk-local buffers (plain stores, no atomics) and flush once
		// at chunk commit, timed at chunk granularity.
		var (
			batchEvents [parallelChunkSize]int64
			batchReach  [parallelChunkSize]float64
			batchN      int
			batchHits   int
			chunkT0     time.Time
		)
		if met != nil {
			chunkT0 = time.Now()
		}
		for i := lo; i < hi; i++ {
			if stop.Load() {
				return nil // first error wins; this chunk is abandoned
			}
			seed := trialSeed(popts.Seed, i)
			var res Result[S]
			var err error
			if popts.TrialTimeout > 0 {
				res, err = runWatched(cm, mk(), target, opts, newTrialRNG(seed), clock, popts.TrialTimeout, i, seed)
			} else {
				// Reseeding the arena's RNG restores exactly the state a
				// fresh newTrialRNG(seed) would have, so the trial's
				// coins are independent of arena reuse.
				ar.rng.Seed(seed)
				res, err = runArenaTrial(&ar.sc, mk(), target, opts, ar.rng)
			}
			if err != nil {
				// The error boxes live in this branch: declared outside
				// it, errors.As would move them to the heap on every
				// trial, failed or not.
				var se *TrialStalledError
				if errors.As(err, &se) {
					if !rc.allowPanic() {
						return se
					}
					if met != nil {
						met.TrialStalled(i)
					}
					chunkPanics = append(chunkPanics, PanicRecord{
						Trial: i, Seed: seed, Kind: RecordStalled, Value: se.Error(),
					})
					continue // quarantined like a panic: recorded, excluded
				}
				var pe *TrialPanicError
				if errors.As(err, &pe) {
					pe.Trial, pe.Seed = i, seed
					if !rc.allowPanic() {
						return pe
					}
					if met != nil {
						met.TrialQuarantined(i)
					}
					chunkPanics = append(chunkPanics, PanicRecord{
						Trial: i, Seed: seed, Value: fmt.Sprint(pe.Value), Stack: pe.Stack,
					})
					continue // quarantined: recorded, excluded from the estimate
				}
				return fmt.Errorf("sim: trial %d: %w", i, err)
			}
			if met != nil {
				batchEvents[batchN] = int64(res.Events)
				batchN++
				if res.Reached {
					batchReach[batchHits] = res.ReachedAt
					batchHits++
				}
			}
			if err := observe(acc, i, res); err != nil {
				return fmt.Errorf("sim: trial %d: %w", i, err)
			}
			chunkCompleted++
		}
		if err := rc.complete(chunk, acc, chunkPanics); err != nil {
			return err
		}
		done[chunk-loChunk] = true
		if met != nil {
			if batchN > 0 {
				met.TrialBatchDone(batchN, batchHits, batchEvents[:batchN], batchReach[:batchHits],
					time.Since(chunkT0).Seconds())
			}
			met.ChunkDone(chunk, hi-lo)
		}
		return nil
	}

	workers := min(popts.workers(), hiChunk-loChunk)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		ar := newTrialArena(cm)
		go func() {
			defer wg.Done()
			// ctx is polled only when claiming a chunk: on cancellation a
			// worker drains the chunk it is on (every trial is bounded by
			// Options.MaxEvents/MaxTime), so completed work is never lost.
			claim := func(ctx context.Context) {
				for !stop.Load() && ctx.Err() == nil {
					chunk := loChunk + int(nextChunk.Add(1)) - 1
					if chunk >= hiChunk {
						return
					}
					if done[chunk-loChunk] {
						continue // restored from the resume token
					}
					if met != nil {
						met.ChunkActive(1)
					}
					err := runChunk(chunk, ar)
					if met != nil {
						met.ChunkActive(-1)
					}
					if err != nil {
						errs[chunk-loChunk] = err
						stop.Store(true)
						return
					}
				}
			}
			if len(popts.PprofLabels) > 0 {
				// Labels cover the worker's whole claim loop: one
				// goroutine-label swap per worker, zero per-trial cost, and
				// every CPU sample inside the trial loop carries the
				// job/lease/chunk-range tags.
				pprof.Do(ctx, pprof.Labels(popts.PprofLabels...), claim)
			} else {
				claim(ctx)
			}
		}()
	}
	wg.Wait()

	rc.cp.sortRecords()
	rep.Panics = append([]PanicRecord(nil), rc.cp.Panics...)
	rep.Quarantined = len(rep.Panics)
	for _, pr := range rep.Panics {
		if pr.Kind == RecordStalled {
			rep.Stalled++
		}
	}
	rep.Checkpoint = rc.cp

	// Deterministic error selection: among the chunks that failed, report
	// the lowest-numbered one — under Workers: 1 this is exactly the first
	// failing trial, and under any worker count it is a stable choice.
	for _, err := range errs {
		if err != nil {
			return total, rep, err
		}
	}

	covered := 0
	for chunk := loChunk; chunk < hiChunk; chunk++ {
		if done[chunk-loChunk] {
			merge(&total, accs[chunk-loChunk])
			covered += chunkLenFor(trials, chunk)
		}
	}
	rep.Completed = covered - rep.Quarantined
	if covered < rangeTrials {
		rep.Interrupted = true
		cause := context.Cause(ctx)
		if cause == nil {
			cause = errors.New("run stopped early")
		}
		return total, rep, fmt.Errorf("%w after %d/%d trials: %v", ErrInterrupted, covered, rangeTrials, cause)
	}
	return total, rep, nil
}

// EstimateReachProbParallel estimates the probability that the target is
// reached within the given time, sharding trials across popts.Workers.
// Seeded results are bit-identical for every worker count. The RunReport
// carries partial-run and quarantine details; see RunParallel for the
// cancellation, checkpoint and panic semantics.
func EstimateReachProbParallel[S comparable](ctx context.Context, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	within float64, trials int, opts Options[S], popts ParallelOptions) (stats.Proportion, RunReport, error) {
	popts.kind = fmt.Sprintf("reachprob(within=%v)", within)
	return RunParallel(ctx, m, mk, target, trials, opts, popts,
		func(acc *stats.Proportion, _ int, res Result[S]) error {
			acc.Observe(res.Reached && res.ReachedAt <= within)
			return nil
		},
		func(dst *stats.Proportion, src stats.Proportion) { dst.Merge(src) })
}

// EstimateTimeToTargetParallel summarizes the time to reach the target
// over trials independent runs; a run that never reaches it is an error,
// which cancels the remaining trials (use a generous Options.MaxTime for
// almost-sure targets). The RunReport carries partial-run and quarantine
// details; see RunParallel for the cancellation, checkpoint and panic
// semantics.
func EstimateTimeToTargetParallel[S comparable](ctx context.Context, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	trials int, opts Options[S], popts ParallelOptions) (stats.Summary, RunReport, error) {
	popts.kind = "timetotarget"
	return RunParallel(ctx, m, mk, target, trials, opts, popts,
		func(acc *stats.Summary, trial int, res Result[S]) error {
			if !res.Reached {
				return fmt.Errorf("run did not reach the target within budget (events=%d, state=%v)",
					res.Events, res.Final)
			}
			acc.Observe(res.ReachedAt)
			return nil
		},
		func(dst *stats.Summary, src stats.Summary) { dst.Merge(src) })
}

// EstimateCurveParallel runs one sharded batch of trials under fresh
// policies from mk and yields the empirical reach probability for every
// requested deadline at once. Deadlines are sorted; when opts.MaxTime is
// unset the run budget is max(deadlines)+1. The RunReport carries
// partial-run and quarantine details; see RunParallel for the
// cancellation, checkpoint and panic semantics.
func EstimateCurveParallel[S comparable](ctx context.Context, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	deadlines []float64, trials int, opts Options[S], popts ParallelOptions) (EmpiricalCurve, RunReport, error) {
	ds, err := curveDeadlines(deadlines)
	if err != nil {
		return EmpiricalCurve{}, RunReport{Total: trials}, err
	}
	if opts.MaxTime <= 0 {
		opts.MaxTime = ds[len(ds)-1] + 1
	}
	popts.kind = fmt.Sprintf("curve(deadlines=%v)", ds)
	at, rep, err := RunParallel(ctx, m, mk, target, trials, opts, popts,
		func(acc *[]stats.Proportion, _ int, res Result[S]) error {
			if *acc == nil {
				*acc = make([]stats.Proportion, len(ds))
			}
			for i, d := range ds {
				(*acc)[i].Observe(res.Reached && res.ReachedAt <= d)
			}
			return nil
		},
		func(dst *[]stats.Proportion, src []stats.Proportion) {
			if src == nil {
				return
			}
			if *dst == nil {
				*dst = make([]stats.Proportion, len(ds))
			}
			for i := range src {
				(*dst)[i].Merge(src[i])
			}
		})
	if at == nil {
		// Zero completed chunks (e.g. cancelled at once): an empty curve
		// with well-formed points, not a nil slice.
		at = make([]stats.Proportion, len(ds))
	}
	return EmpiricalCurve{Deadlines: ds, At: at}, rep, err
}
