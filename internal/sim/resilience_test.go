package sim

// Tests for the resilient run controller: panic quarantine with seed-exact
// repro, context cancellation with graceful partial results, and
// chunk-granularity checkpoint/resume that is bit-identical to an
// uninterrupted run for every worker count.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// mkPanicky returns a policy factory that panics on a pFrac fraction of
// trials: the decision is the trial RNG's first draw, so which trials
// panic is a pure function of the root seed — deterministic across worker
// counts and reproducible from the trial seed alone.
func mkPanicky(pFrac float64) func() Policy[flipState] {
	return func() Policy[flipState] {
		first := true
		inner := Slowest[flipState]()
		return PolicyFunc[flipState](func(v *View[flipState], rng *rand.Rand) (Choice, bool) {
			if first {
				first = false
				if rng.Float64() < pFrac {
					panic("injected policy panic")
				}
			}
			return inner.Choose(v, rng)
		})
	}
}

func TestRunOnceRecoversPanics(t *testing.T) {
	boom := PolicyFunc[flipState](func(*View[flipState], *rand.Rand) (Choice, bool) {
		panic("kaboom")
	})
	_, err := RunOnce[flipState](flipper{}, boom, heads, Options[flipState]{}, rand.New(rand.NewSource(1)))
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TrialPanicError", err)
	}
	if pe.Trial != -1 {
		t.Errorf("standalone RunOnce panic Trial = %d, want -1", pe.Trial)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v, want kaboom", pe.Value)
	}
	if pe.Stack == "" {
		t.Error("panic stack not captured")
	}
}

// TestPanicAbortNamesReproSeed is the acceptance criterion for crashes: an
// injected panicking policy must surface as a TrialPanicError whose Seed
// replays the panic in a single RunOnce.
func TestPanicAbortNamesReproSeed(t *testing.T) {
	mk := mkPanicky(0.05)
	_, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, 2000,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 11}) // MaxPanics 0: first panic aborts
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TrialPanicError", err)
	}
	if pe.Trial < 0 || pe.Seed != TrialRNGSeed(11, pe.Trial) {
		t.Fatalf("panic names trial %d seed %d, want seed %d", pe.Trial, pe.Seed, TrialRNGSeed(11, pe.Trial))
	}
	if !strings.Contains(err.Error(), fmt.Sprint(pe.Seed)) {
		t.Errorf("error %q does not name the repro seed %d", err, pe.Seed)
	}
	if rep.Checkpoint == nil {
		t.Error("report after abort has no checkpoint")
	}

	// The one-line repro: a fresh RunOnce on the trial's private RNG
	// reproduces the exact panic.
	_, rerr := RunOnce[flipState](flipper{}, mk(), heads, Options[flipState]{}, newTrialRNG(pe.Seed))
	var rpe *TrialPanicError
	if !errors.As(rerr, &rpe) || fmt.Sprint(rpe.Value) != fmt.Sprint(pe.Value) {
		t.Errorf("RunOnce with seed %d = %v, want the original panic %v", pe.Seed, rerr, pe.Value)
	}
	// And the packaged form of the same command.
	_, rerr = ReproTrial[flipState](flipper{}, mk, heads, Options[flipState]{}, 11, pe.Trial)
	rpe = nil
	if !errors.As(rerr, &rpe) || rpe.Trial != pe.Trial || rpe.Seed != pe.Seed {
		t.Errorf("ReproTrial = %v, want panic at trial %d seed %d", rerr, pe.Trial, pe.Seed)
	}
}

// TestPanicQuarantine: with a budget, panicking trials are excluded and
// recorded rather than fatal, the surviving estimate is deterministic
// across worker counts, and exceeding the budget aborts.
func TestPanicQuarantine(t *testing.T) {
	const trials = 2000
	mk := mkPanicky(0.01)
	// Panic identity (trial, seed) is deterministic; stacks carry
	// goroutine ids and addresses, so the comparison strips them.
	identity := func(prs []PanicRecord) [][2]int64 {
		ids := make([][2]int64, len(prs))
		for i, pr := range prs {
			ids[i] = [2]int64{int64(pr.Trial), pr.Seed}
		}
		return ids
	}
	var baseline stats.Proportion
	var basePanics [][2]int64
	for i, workers := range []int{1, 3, 8} {
		prop, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, trials,
			Options[flipState]{}, ParallelOptions{Workers: workers, Seed: 9, MaxPanics: trials})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Quarantined == 0 {
			t.Fatalf("workers=%d: no trials quarantined; the injected panics did not fire", workers)
		}
		if rep.Completed+rep.Quarantined != trials {
			t.Errorf("workers=%d: completed %d + quarantined %d != %d", workers, rep.Completed, rep.Quarantined, trials)
		}
		if prop.Trials != rep.Completed {
			t.Errorf("workers=%d: estimate over %d trials, report says %d", workers, prop.Trials, rep.Completed)
		}
		for _, pr := range rep.Panics {
			if pr.Seed != TrialRNGSeed(9, pr.Trial) {
				t.Errorf("workers=%d: panic record %+v has wrong seed", workers, pr)
			}
		}
		if i == 0 {
			baseline, basePanics = prop, identity(rep.Panics)
			continue
		}
		if prop != baseline {
			t.Errorf("workers=%d: estimate %+v differs from baseline %+v", workers, prop, baseline)
		}
		if !reflect.DeepEqual(identity(rep.Panics), basePanics) {
			t.Errorf("workers=%d: quarantined set differs across worker counts", workers)
		}
	}

	// A budget of zero rejects the very first panic.
	_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{Workers: 3, Seed: 9})
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MaxPanics=0: err = %v, want *TrialPanicError", err)
	}
}

// interruptAfterChunks builds a ParallelOptions whose checkpoint sink
// cancels the context after n completed chunks — a deterministic stand-in
// for SIGINT striking mid-run.
func interruptAfterChunks(popts ParallelOptions, cancel context.CancelFunc, n int) ParallelOptions {
	calls := 0
	popts.CheckpointSink = func(*Checkpoint) error {
		calls++
		if calls == n {
			cancel()
		}
		return nil
	}
	return popts
}

// TestInterruptResumeBitIdentical is the headline resilience guarantee
// (and the cancellation-determinism satellite): a run cancelled mid-way
// and resumed from its checkpoint produces bit-identical final estimates
// to an uninterrupted seeded run, for several worker counts on both sides
// of the interruption.
func TestInterruptResumeBitIdentical(t *testing.T) {
	const trials = 2000 // 32 chunks: far more than any worker pool drains post-cancel
	opts := Options[flipState]{}
	base := ParallelOptions{Seed: 42}

	wantSum, wantRep, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, trials, opts, base)
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.Completed != trials {
		t.Fatalf("uninterrupted run completed %d/%d", wantRep.Completed, trials)
	}

	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		popts := base
		popts.Workers = workers
		got, rep, err := EstimateTimeToTargetParallel[flipState](ctx, flipper{}, mkSlowest, heads, trials, opts,
			interruptAfterChunks(popts, cancel, 3))
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: err = %v, want ErrInterrupted", workers, err)
		}
		if !rep.Interrupted || rep.Completed == 0 || rep.Completed >= trials {
			t.Fatalf("workers=%d: partial report %v not strictly partial", workers, rep)
		}
		if got.N() != rep.Completed {
			t.Errorf("workers=%d: partial summary over %d samples, report says %d", workers, got.N(), rep.Completed)
		}
		if rep.Checkpoint == nil || rep.Checkpoint.Done() != rep.Completed {
			t.Fatalf("workers=%d: resume token covers %v trials, want %d", workers, rep.Checkpoint.Done(), rep.Completed)
		}

		// Resume on a different worker count than the interrupted half ran.
		resumed := base
		resumed.Workers = 11 - workers
		resumed.Resume = rep.Checkpoint
		final, rep2, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, trials, opts, resumed)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if rep2.Resumed != rep.Completed {
			t.Errorf("workers=%d: resumed %d trials, want %d restored", workers, rep2.Resumed, rep.Completed)
		}
		if rep2.Completed != trials {
			t.Errorf("workers=%d: resumed run completed %d/%d", workers, rep2.Completed, trials)
		}
		// reflect.DeepEqual sees the unexported Welford state: this is a
		// bit-level comparison with the uninterrupted run.
		if !reflect.DeepEqual(final, wantSum) {
			t.Errorf("workers=%d: resumed estimate %v != uninterrupted %v", workers, final.String(), wantSum.String())
		}
	}
}

// TestInterruptBeforeStart: a context that is already cancelled yields an
// empty partial result and a resume token that replays the entire run.
func TestInterruptBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prop, rep, err := EstimateReachProbParallel[flipState](ctx, flipper{}, mkSlowest, heads, 2, 500,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 5})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if prop.Trials != 0 || rep.Completed != 0 || !rep.Interrupted {
		t.Fatalf("cancelled-at-start run reported %v, estimate %+v", rep, prop)
	}
	want, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 500,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 500,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 5, Resume: rep.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resume from empty token = %+v, want %+v", got, want)
	}
}

// TestCurveInterruptResume exercises the slice-valued accumulator through
// the same interrupt/resume cycle.
func TestCurveInterruptResume(t *testing.T) {
	deadlines := []float64{1, 2, 3}
	const trials = 1500
	want, _, err := EstimateCurveParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, deadlines, trials,
		Options[flipState]{}, ParallelOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	popts := interruptAfterChunks(ParallelOptions{Seed: 3, Workers: 4}, cancel, 2)
	partial, rep, err := EstimateCurveParallel[flipState](ctx, flipper{}, mkSlowest, heads, deadlines, trials,
		Options[flipState]{}, popts)
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(partial.At) != len(deadlines) || partial.At[0].Trials != rep.Completed {
		t.Fatalf("partial curve %+v inconsistent with report %v", partial, rep)
	}
	got, _, err := EstimateCurveParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, deadlines, trials,
		Options[flipState]{}, ParallelOptions{Seed: 3, Resume: rep.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed curve %+v != uninterrupted %+v", got, want)
	}
}

// TestCheckpointMismatch: resume tokens are refused when they belong to a
// different seed, budget, or estimator.
func TestCheckpointMismatch(t *testing.T) {
	_, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 300,
		Options[flipState]{}, ParallelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	token := rep.Checkpoint

	cases := []struct {
		name string
		run  func() error
	}{
		{"different seed", func() error {
			_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 300,
				Options[flipState]{}, ParallelOptions{Seed: 2, Resume: token})
			return err
		}},
		{"different budget", func() error {
			_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 301,
				Options[flipState]{}, ParallelOptions{Seed: 1, Resume: token})
			return err
		}},
		{"different estimator", func() error {
			_, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 300,
				Options[flipState]{}, ParallelOptions{Seed: 1, Resume: token})
			return err
		}},
		{"different estimator parameters", func() error {
			_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 3, 300,
				Options[flipState]{}, ParallelOptions{Seed: 1, Resume: token})
			return err
		}},
		{"corrupt chunk index", func() error {
			bad := *token
			bad.Chunks = append([]ChunkRecord(nil), token.Chunks...)
			bad.Chunks[0].Index = 99
			_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 300,
				Options[flipState]{}, ParallelOptions{Seed: 1, Resume: &bad})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: err = %v, want ErrCheckpointMismatch", tc.name, err)
		}
	}
}

// TestCheckpointSetRoundTrip: the on-disk form restores bit-identically
// through Save/Load, and a missing state file is an empty set.
func TestCheckpointSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	cs, err := LoadCheckpointSet(path)
	if err != nil || len(cs) != 0 {
		t.Fatalf("missing file: set %v, err %v; want empty, nil", cs, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	popts := interruptAfterChunks(ParallelOptions{Seed: 8, Workers: 2}, cancel, 2)
	_, rep, err := EstimateTimeToTargetParallel[flipState](ctx, flipper{}, mkSlowest, heads, 1000,
		Options[flipState]{}, popts)
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	cs["stage"] = rep.Checkpoint
	if err := cs.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpointSet(path)
	if err != nil {
		t.Fatal(err)
	}

	want, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 1000,
		Options[flipState]{}, ParallelOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 1000,
		Options[flipState]{}, ParallelOptions{Seed: 8, Resume: loaded["stage"]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resume through disk = %v, want %v", got.String(), want.String())
	}
}

// TestEstimateValidation: nil RNGs, nil factories and bad budgets are
// clear up-front errors on every entry point, never a panic deep in the
// engine.
func TestEstimateValidation(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("%s: err = %v, want ErrInvalidArgument", name, err)
		}
	}

	_, err := RunOnce[flipState](nil, Slowest[flipState](), heads, Options[flipState]{}, rng)
	check("RunOnce nil model", err)
	_, err = RunOnce[flipState](flipper{}, nil, heads, Options[flipState]{}, rng)
	check("RunOnce nil policy", err)
	_, err = RunOnce[flipState](flipper{}, Slowest[flipState](), heads, Options[flipState]{}, nil)
	check("RunOnce nil rng", err)
	_, err = RunOnce[flipState](flipper{}, Slowest[flipState](), nil, Options[flipState]{}, rng)
	check("RunOnce nil target", err)

	_, _, err = EstimateReachProbParallel[flipState](ctx, nil, mkSlowest, heads, 2, 10, Options[flipState]{}, ParallelOptions{})
	check("EstimateReachProbParallel nil model", err)
	_, _, err = EstimateReachProbParallel[flipState](ctx, flipper{}, nil, heads, 2, 10, Options[flipState]{}, ParallelOptions{})
	check("EstimateReachProbParallel nil factory", err)
	_, _, err = EstimateTimeToTargetParallel[flipState](ctx, flipper{}, mkSlowest, nil, 10, Options[flipState]{}, ParallelOptions{})
	check("EstimateTimeToTargetParallel nil target", err)
	_, _, err = EstimateCurveParallel[flipState](ctx, flipper{}, mkSlowest, heads, []float64{1}, 0, Options[flipState]{}, ParallelOptions{})
	check("EstimateCurveParallel zero trials", err)
	_, _, err = EstimateReachProbParallel[flipState](ctx, flipper{}, mkSlowest, heads, 2, 10, Options[flipState]{},
		ParallelOptions{MaxPanics: -1})
	check("negative quarantine budget", err)

	var nilObserve func(acc *int, trial int, res Result[flipState]) error
	_, _, err = RunParallel[flipState, int](ctx, flipper{}, mkSlowest, heads, 10, Options[flipState]{}, ParallelOptions{},
		nilObserve, func(dst *int, src int) {})
	check("RunParallel nil observe", err)
}
