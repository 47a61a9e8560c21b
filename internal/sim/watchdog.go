package sim

// Stuck-trial containment. Panic quarantine (panic.go) handles trials
// that die loudly; this file handles trials that never return — a policy
// spinning in an infinite loop, a model whose support never reaches the
// target and whose step budget is effectively unbounded. When
// ParallelOptions.TrialTimeout is set, each trial runs under a watchdog:
// a trial that exceeds its wall-clock budget is abandoned and quarantined
// as a typed *TrialStalledError, exactly like a panic — recorded in the
// checkpoint (kind "stall"), excluded from the estimate, counted against
// the MaxPanics budget. The trial's seed is in the record, so the hang
// reproduces deterministically with ReproTrial.
//
// Time flows through fault.Clock, so tests drive the watchdog with a
// FakeClock instead of sleeping and stall detection stays deterministic.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
)

// ErrTrialStalled matches every *TrialStalledError, so callers can
// classify an abort as watchdog-triggered without naming the trial.
var ErrTrialStalled = errors.New("sim: trial stalled")

// TrialStalledError reports a trial abandoned by the watchdog after
// exceeding its wall-clock budget. Like TrialPanicError, it carries the
// trial index and the trial's private RNG seed, so the hang replays
// deterministically with sim.ReproTrial and the run's root seed (under a
// watchdog, unless you want to wait; a plain rand.NewSource(Seed) draws
// a different stream). It matches ErrTrialStalled via errors.Is.
type TrialStalledError struct {
	// Trial is the index of the stalled trial within the parallel run.
	Trial int
	// Seed is the trial's private RNG seed.
	Seed int64
	// Timeout is the wall-clock budget the trial exceeded.
	Timeout time.Duration
}

// Error names the trial, its budget and its repro seed.
func (e *TrialStalledError) Error() string {
	return fmt.Sprintf("sim: trial %d stalled: no result within %v (replay: sim.ReproTrial(..., rootSeed, %d); trial RNG seed %d)",
		e.Trial, e.Timeout, e.Trial, e.Seed)
}

// Is reports a match against ErrTrialStalled.
func (e *TrialStalledError) Is(target error) bool { return target == ErrTrialStalled }

// trialOutcome carries one finished trial out of its watchdog goroutine.
type trialOutcome[S comparable] struct {
	res Result[S]
	err error
}

// runWatched executes one trial under a wall-clock watchdog: RunOnce runs
// in its own goroutine, and if it has not delivered an outcome when the
// budget elapses, the trial is abandoned with a *TrialStalledError.
//
// An abandoned trial's goroutine is deliberately leaked: it holds only
// trial-local state (its policy, its RNG, its chunk is not touched) and
// its late outcome lands in a buffered channel nobody reads. A trial that
// is genuinely stuck — the failure mode the watchdog exists for — can be
// abandoned but not stopped; bounding the leak is what MaxPanics is for.
func runWatched[S comparable](m sched.Model[S], pol Policy[S], target func(S) bool, opts Options[S],
	rng *rand.Rand, clock fault.Clock, timeout time.Duration, trial int, seed int64) (Result[S], error) {

	outcome := make(chan trialOutcome[S], 1)
	go func() {
		res, err := RunOnce(m, pol, target, opts, rng)
		outcome <- trialOutcome[S]{res: res, err: err}
	}()
	select {
	case o := <-outcome:
		return o.res, o.err
	case <-clock.After(timeout):
		// The trial may have finished in the instant between the timer
		// firing and this select: prefer the real outcome when it is
		// already there, so a FakeClock advanced past the deadline cannot
		// stall a trial that actually completed.
		select {
		case o := <-outcome:
			return o.res, o.err
		default:
		}
		return Result[S]{}, &TrialStalledError{Trial: trial, Seed: seed, Timeout: timeout}
	}
}
