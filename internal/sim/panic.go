package sim

// Panic containment. A policy, model, target predicate or observer that
// panics mid-trial must not take down a multi-hour Monte Carlo run: the
// engine converts the panic into a typed error carrying everything needed
// to replay the crash deterministically — the trial index and the exact
// SplitMix64-derived RNG seed of the offending trial — so any crash
// reproduces in a single ReproTrial.

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/sched"
)

// TrialPanicError reports a panic recovered inside one simulation run.
//
// When the error escapes from a parallel run, Trial is the index of the
// panicking trial and Seed is that trial's private RNG seed, so the crash
// replays deterministically with sim.ReproTrial and the run's root seed
// (the replay must use the engine's own trial source — a plain
// rand.NewSource(err.Seed) draws a different stream). A panic
// recovered by a standalone RunOnce has Trial = -1 and Seed = 0 (the
// caller owns the RNG there, so the engine cannot name its seed).
type TrialPanicError struct {
	// Trial is the index of the panicking trial within a parallel run;
	// -1 when the panic was recovered outside the parallel engine.
	Trial int
	// Seed is the trial's private RNG seed (trial index mixed into the
	// root seed by SplitMix64); meaningful only when Trial >= 0.
	Seed int64
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error names the trial and its repro seed when known.
func (e *TrialPanicError) Error() string {
	if e.Trial < 0 {
		return fmt.Sprintf("sim: run panicked: %v", e.Value)
	}
	return fmt.Sprintf("sim: trial %d panicked: %v (replay: sim.ReproTrial(..., rootSeed, %d); trial RNG seed %d)",
		e.Trial, e.Value, e.Trial, e.Seed)
}

// Unwrap exposes a panic value that was itself an error.
func (e *TrialPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoverTrialPanic converts a recovered panic value into a
// *TrialPanicError; it is the deferred recovery hook of RunOnce.
func recoverTrialPanic(err *error) {
	if r := recover(); r != nil {
		*err = &TrialPanicError{Trial: -1, Value: r, Stack: string(debug.Stack())}
	}
}

// TrialRNGSeed returns the private RNG seed of one trial of a parallel run
// with the given root seed — the value a TrialPanicError reports in Seed.
func TrialRNGSeed(rootSeed int64, trial int) int64 { return trialSeed(rootSeed, trial) }

// ReproTrial replays a single trial of a parallel run: it derives the
// trial's private RNG from the root seed exactly as the worker pool does
// and executes one RunOnce. It is the one-line repro command for a
// TrialPanicError quarantined from a large run:
//
//	res, err := sim.ReproTrial(model, mk, target, opts, rootSeed, pe.Trial)
//
// returns the same result (or the same panic, as a TrialPanicError) that
// the original trial produced, whatever the worker count was. The model
// may be the raw one or its compiled form: RunOnce compiles it, so the
// replay runs the same engine and sampler as the original run.
func ReproTrial[S comparable](m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], rootSeed int64, trial int) (Result[S], error) {
	if mk == nil {
		return Result[S]{}, fmt.Errorf("%w: nil policy factory", ErrInvalidArgument)
	}
	if trial < 0 {
		return Result[S]{}, fmt.Errorf("%w: negative trial index %d", ErrInvalidArgument, trial)
	}
	res, err := RunOnce(m, mk(), target, opts, newTrialRNG(trialSeed(rootSeed, trial)))
	var pe *TrialPanicError
	if errors.As(err, &pe) {
		pe.Trial, pe.Seed = trial, trialSeed(rootSeed, trial)
	}
	return res, err
}
