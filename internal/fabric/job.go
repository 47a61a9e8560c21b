package fabric

// The job registry: turning a serializable JobSpec into a Runner — the
// model, adversary policy, estimator and options it names, bound to the
// chunk-range execution seam of the parallel engine. A coordinator and
// its workers each build a Runner from the same spec; because models
// and policies are pure functions of the spec and every trial's RNG
// derives from (seed, trial index), the processes agree bit-for-bit on
// what every chunk computes.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/sched"
	"repro/internal/sim"
)

// EngineHooks is the per-call observability a Runner threads into the
// parallel engine: chunk-lifecycle span hooks (sim.ParallelOptions.
// SpanHooks) and pprof goroutine labels segmenting CPU profiles by
// job/lease. The zero value is free — both fields pass through as their
// nil defaults.
type EngineHooks struct {
	Spans  sim.SpanHooks
	Labels []string
}

// Runner executes pieces of one job against the local engine.
type Runner interface {
	// Spec returns the job this runner was built from.
	Spec() JobSpec
	// Template returns the run's empty checkpoint — identity fields
	// (estimator kind, seed, trial budget, chunk size) with no chunk
	// records — by executing an empty chunk range. It is the frontier a
	// coordinator starts from and validates results against.
	Template(ctx context.Context) (*sim.Checkpoint, error)
	// RunRange executes chunks [r.Lo, r.Hi) of the job's trial budget on
	// workers engine goroutines and returns the checkpoint fragment
	// covering exactly those chunks.
	RunRange(ctx context.Context, workers int, r sim.ChunkRange, eng EngineHooks) (*sim.Checkpoint, sim.RunReport, error)
	// Finalize merges a frontier checkpoint into the job's estimate,
	// rendered as the canonical result line fragment. The merge rides the
	// engine's resume path (restore all chunks, run nothing, merge in
	// chunk order), so a complete frontier yields output bit-identical to
	// a single-process run. An incomplete frontier yields the partial
	// estimate over the chunks present plus an error matching
	// sim.ErrInterrupted — the graceful-degradation path.
	Finalize(ctx context.Context, cp *sim.Checkpoint) (string, sim.RunReport, error)
	// Estimate runs the whole job locally in one pass (no checkpoint
	// round-trip) — the single-process reference the fabric is measured
	// against.
	Estimate(ctx context.Context, workers int, eng EngineHooks) (string, sim.RunReport, error)
}

// NewRunner validates spec and builds its Runner.
func NewRunner(spec JobSpec) (Runner, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("fabric: job trials must be positive, got %d", spec.Trials)
	}
	if spec.N <= 0 {
		return nil, fmt.Errorf("fabric: job n must be positive, got %d", spec.N)
	}
	if spec.MaxPanics < 0 {
		return nil, fmt.Errorf("fabric: job max_panics must be >= 0, got %d", spec.MaxPanics)
	}
	switch spec.Estimator {
	case EstimatorReachProb:
		if spec.Within <= 0 {
			return nil, fmt.Errorf("fabric: estimator %q needs a positive within deadline, got %g", spec.Estimator, spec.Within)
		}
	case EstimatorTimeToTarget:
	default:
		return nil, fmt.Errorf("fabric: unknown estimator %q (want %s or %s)", spec.Estimator, EstimatorReachProb, EstimatorTimeToTarget)
	}
	if spec.Policy == "" {
		spec.Policy = "slowest"
	}
	switch spec.Model {
	case "dining":
		return newDiningRunner(spec)
	case "election":
		return newElectionRunner(spec)
	default:
		return nil, fmt.Errorf("fabric: unknown model %q (want dining or election)", spec.Model)
	}
}

func newDiningRunner(spec JobSpec) (Runner, error) {
	m, err := dining.New(spec.N)
	if err != nil {
		return nil, fmt.Errorf("fabric: building dining model: %w", err)
	}
	mk, err := diningPolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	cm, err := sim.Compile[dining.State](m)
	if err != nil {
		return nil, fmt.Errorf("fabric: compiling dining model: %w", err)
	}
	return &runner[dining.State]{
		spec:   spec,
		model:  cm,
		mk:     mk,
		target: dining.InC,
		opts: sim.Options[dining.State]{
			Start:     dining.AllAt(spec.N, dining.F),
			SetStart:  true,
			MaxEvents: spec.MaxEvents,
			MaxTime:   spec.MaxTime,
		},
	}, nil
}

// diningPolicy mirrors the lrsim policy table so fabric jobs explore
// the same adversary menagerie as the single-process CLI.
func diningPolicy(name string) (func() sim.Policy[dining.State], error) {
	switch {
	case name == "slowest":
		return func() sim.Policy[dining.State] {
			return dining.KeepTrying(sim.Slowest[dining.State]())
		}, nil
	case name == "random":
		return func() sim.Policy[dining.State] {
			return dining.KeepTrying(sim.Random[dining.State](0.5))
		}, nil
	case name == "spiteful":
		return func() sim.Policy[dining.State] {
			return dining.Spiteful()
		}, nil
	case strings.HasPrefix(name, "paced:"):
		alpha, err := strconv.ParseFloat(strings.TrimPrefix(name, "paced:"), 64)
		if err != nil || alpha <= 0 || alpha > 1 {
			return nil, fmt.Errorf("fabric: bad paced alpha in %q", name)
		}
		return func() sim.Policy[dining.State] {
			return dining.KeepTrying(sim.Paced[dining.State](alpha))
		}, nil
	default:
		return nil, fmt.Errorf("fabric: unknown dining policy %q", name)
	}
}

func newElectionRunner(spec JobSpec) (Runner, error) {
	if spec.Policy != "slowest" {
		return nil, fmt.Errorf("fabric: election supports only the slowest policy, got %q", spec.Policy)
	}
	m, err := election.New(spec.N)
	if err != nil {
		return nil, fmt.Errorf("fabric: building election model: %w", err)
	}
	cm, err := sim.Compile[election.State](m)
	if err != nil {
		return nil, fmt.Errorf("fabric: compiling election model: %w", err)
	}
	return &runner[election.State]{
		spec:  spec,
		model: cm,
		mk: func() sim.Policy[election.State] {
			return sim.Slowest[election.State]()
		},
		target: election.State.HasLeader,
		opts: sim.Options[election.State]{
			MaxEvents: spec.MaxEvents,
			MaxTime:   spec.MaxTime,
		},
	}, nil
}

// runner binds a spec to its concrete model/policy/estimator. The model
// is compiled once at construction, so every range a worker runs shares
// one warm transition cache.
type runner[S comparable] struct {
	spec   JobSpec
	model  sched.Model[S]
	mk     func() sim.Policy[S]
	target func(S) bool
	opts   sim.Options[S]
}

func (r *runner[S]) Spec() JobSpec { return r.spec }

func (r *runner[S]) popts(workers int) sim.ParallelOptions {
	return sim.ParallelOptions{
		Workers:   workers,
		Seed:      r.spec.Seed,
		MaxPanics: r.spec.MaxPanics,
	}
}

// estimate dispatches to the estimator wrapper the spec names and
// renders the estimate in the canonical form both `simd local` and the
// coordinator print — the strings byte-compared by the fabric's
// identity tests.
func (r *runner[S]) estimate(ctx context.Context, popts sim.ParallelOptions) (string, sim.RunReport, error) {
	switch r.spec.Estimator {
	case EstimatorTimeToTarget:
		est, rep, err := sim.EstimateTimeToTargetParallel(ctx, r.model, r.mk, r.target,
			r.spec.Trials, r.opts, popts)
		return fmt.Sprintf("E[time to target] = %s", est.String()), rep, err
	default: // validated at construction; reachprob
		est, rep, err := sim.EstimateReachProbParallel(ctx, r.model, r.mk, r.target,
			r.spec.Within, r.spec.Trials, r.opts, popts)
		return fmt.Sprintf("P[target within %g] = %s", r.spec.Within, est.String()), rep, err
	}
}

func (r *runner[S]) Template(ctx context.Context) (*sim.Checkpoint, error) {
	cp, _, err := r.RunRange(ctx, 1, sim.ChunkRange{}, EngineHooks{})
	return cp, err
}

func (r *runner[S]) RunRange(ctx context.Context, workers int, cr sim.ChunkRange, eng EngineHooks) (*sim.Checkpoint, sim.RunReport, error) {
	popts := r.popts(workers)
	popts.Chunks = &cr
	popts.SpanHooks = eng.Spans
	popts.PprofLabels = eng.Labels
	_, rep, err := r.estimate(ctx, popts)
	return rep.Checkpoint, rep, err
}

func (r *runner[S]) Finalize(ctx context.Context, cp *sim.Checkpoint) (string, sim.RunReport, error) {
	popts := r.popts(1)
	popts.Resume = cp
	if !cp.Complete() {
		// Partial frontier: merge what is restored without running the
		// missing chunks — an already-cancelled context makes the engine
		// skip execution and return the partial estimate + ErrInterrupted.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		ctx = cctx
	}
	return r.estimate(ctx, popts)
}

func (r *runner[S]) Estimate(ctx context.Context, workers int, eng EngineHooks) (string, sim.RunReport, error) {
	popts := r.popts(workers)
	popts.SpanHooks = eng.Spans
	popts.PprofLabels = eng.Labels
	return r.estimate(ctx, popts)
}
