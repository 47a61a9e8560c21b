package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

func mkSlowest() Policy[flipState] { return Slowest[flipState]() }

func heads(s flipState) bool { return s.Heads }

// TestParallelDeterministicAcrossWorkers is the deterministic-replay
// requirement: for a fixed seed, every worker count must produce
// bit-identical Proportion and Summary totals, because the per-trial RNG
// and the chunked merge order depend only on the trial budget.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	const trials = 500 // > several chunks, with a ragged final chunk
	opts := Options[flipState]{}
	var props []stats.Proportion
	var sums []stats.Summary
	for _, workers := range []int{1, 2, 8} {
		popts := ParallelOptions{Workers: workers, Seed: 42}
		prop, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials, opts, popts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		props = append(props, prop)
		sum, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, trials, opts, popts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sums = append(sums, sum)
	}
	for i := 1; i < len(props); i++ {
		if props[i] != props[0] {
			t.Errorf("Proportion differs across worker counts: %+v vs %+v", props[i], props[0])
		}
		// reflect.DeepEqual sees the unexported Welford state, so this is
		// a bit-level comparison of mean/m2/min/max, not an approximate one.
		if !reflect.DeepEqual(sums[i], sums[0]) {
			t.Errorf("Summary differs across worker counts: %v vs %v", sums[i].String(), sums[0].String())
		}
	}
}

// TestParallelSeedChangesResults guards against the pool ignoring the
// root seed: distinct seeds must yield distinct trial streams.
func TestParallelSeedChangesResults(t *testing.T) {
	opts := Options[flipState]{}
	a, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 300, opts, ParallelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 300, opts, ParallelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 produced identical summaries: %v", a.String())
	}
}

// TestEstimateReachProbParallelValue checks statistical correctness:
// P[heads within time 2] under the slowest policy is 3/4.
func TestEstimateReachProbParallelValue(t *testing.T) {
	prop, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 4000,
		Options[flipState]{}, ParallelOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Trials != 4000 {
		t.Fatalf("trials = %d, want 4000", prop.Trials)
	}
	lo, hi, err := prop.Wilson(3)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.75 || hi < 0.75 {
		t.Errorf("P[heads within 2] interval [%g, %g] excludes 3/4", lo, hi)
	}
}

// TestEstimateTimeToTargetParallelValue checks the geometric mean-time
// value (2 for a fair coin at unit pace) through the parallel path.
func TestEstimateTimeToTargetParallelValue(t *testing.T) {
	sum, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 4000,
		Options[flipState]{}, ParallelOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := sum.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2) > 0.15 {
		t.Errorf("mean time = %g, want about 2", mean)
	}
}

// TestEstimateCurveParallelDeterministic checks the sharded curve:
// identical across worker counts, monotone in the deadline, and sharing
// the default budget semantics.
func TestEstimateCurveParallelDeterministic(t *testing.T) {
	deadlines := []float64{3, 1, 2} // unsorted on purpose
	var curves []EmpiricalCurve
	for _, workers := range []int{1, 6} {
		c, _, err := EstimateCurveParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, deadlines, 500,
			Options[flipState]{}, ParallelOptions{Workers: workers, Seed: 3})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		curves = append(curves, c)
	}
	if !reflect.DeepEqual(curves[0], curves[1]) {
		t.Errorf("curves differ across worker counts: %+v vs %+v", curves[0], curves[1])
	}
	c := curves[0]
	if !sortedAscending(c.Deadlines) {
		t.Errorf("deadlines not sorted: %v", c.Deadlines)
	}
	prev := -1.0
	for i := range c.Deadlines {
		est, _, _, err := c.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		if est < prev {
			t.Errorf("curve not monotone at %v: %g < %g", c.Deadlines[i], est, prev)
		}
		prev = est
	}
	if _, _, err := EstimateCurveParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, nil, 10,
		Options[flipState]{}, ParallelOptions{}); err == nil {
		t.Error("empty deadlines accepted")
	}
}

func sortedAscending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// TestParallelErrorSemantics: engine errors keep their identity through
// the pool (errors.Is on the sentinel), carry a trial index, and cancel
// the remaining trials promptly (first error wins).
func TestParallelErrorSemantics(t *testing.T) {
	t.Run("desertion", func(t *testing.T) {
		quit := func() Policy[flipState] {
			return PolicyFunc[flipState](func(*View[flipState], *rand.Rand) (Choice, bool) {
				return Choice{}, false
			})
		}
		_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, quit, heads, 2, 10_000,
			Options[flipState]{}, ParallelOptions{Workers: 8, Seed: 1})
		if !errors.Is(err, ErrPolicyDeserted) {
			t.Errorf("err = %v, want ErrPolicyDeserted", err)
		}
	})
	t.Run("bad choice", func(t *testing.T) {
		malicious := func() Policy[flipState] {
			return PolicyFunc[flipState](func(*View[flipState], *rand.Rand) (Choice, bool) {
				return Choice{Proc: 99, At: 0}, true
			})
		}
		_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, malicious, heads, 2, 10_000,
			Options[flipState]{}, ParallelOptions{Workers: 8, Seed: 1})
		if !errors.Is(err, ErrBadChoice) {
			t.Errorf("err = %v, want ErrBadChoice", err)
		}
	})
	t.Run("unreached target is an error", func(t *testing.T) {
		never := func(flipState) bool { return false }
		_, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, never, 64,
			Options[flipState]{MaxEvents: 50}, ParallelOptions{Workers: 4, Seed: 1})
		if err == nil {
			t.Error("unreachable target accepted")
		}
	})
	t.Run("workers one reports the first failing trial", func(t *testing.T) {
		never := func(flipState) bool { return false }
		_, _, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, never, 64,
			Options[flipState]{MaxEvents: 50}, ParallelOptions{Workers: 1, Seed: 1})
		if err == nil || !strings.HasPrefix(err.Error(), "sim: trial 0:") {
			t.Errorf("err = %v, want it to name trial 0", err)
		}
	})
	t.Run("non-positive trial budget", func(t *testing.T) {
		if _, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, 0,
			Options[flipState]{}, ParallelOptions{}); err == nil {
			t.Error("zero trials accepted")
		}
	})
	t.Run("trial budget past MaxTrials", func(t *testing.T) {
		// An empty range runs nothing, so only the cap can refuse it.
		_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, MaxTrials+1,
			Options[flipState]{}, ParallelOptions{Chunks: &ChunkRange{}})
		if !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("err = %v, want ErrInvalidArgument", err)
		}
	})
}

// TestRunParallelCustomAccumulator exercises the exported generic layer
// directly with a user-defined mergeable accumulator.
func TestRunParallelCustomAccumulator(t *testing.T) {
	type tally struct {
		Runs   int
		Events int
	}
	got, _, err := RunParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 200,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 5},
		func(acc *tally, _ int, res Result[flipState]) error {
			acc.Runs++
			acc.Events += res.Events
			return nil
		},
		func(dst *tally, src tally) {
			dst.Runs += src.Runs
			dst.Events += src.Events
		})
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != 200 {
		t.Errorf("runs = %d, want 200", got.Runs)
	}
	if got.Events < 200 { // every run flips at least once
		t.Errorf("events = %d, want >= 200", got.Events)
	}
}

// TestTrialSeedSpread spot-checks the SplitMix64 mixing: nearby trial
// indices and nearby root seeds must not collide.
func TestTrialSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for trial := 0; trial < 1000; trial++ {
			s := trialSeed(seed, trial)
			if seen[s] {
				t.Fatalf("seed collision at root=%d trial=%d", seed, trial)
			}
			seen[s] = true
		}
	}
}

// TestRunParallelWarmAllocs: with a warm compiled cache and a factory
// that hands out one shared stateless policy, RunParallel allocates less
// than one object per trial. A trial that succeeds must not pay for the
// error boxes its failure checks unwrap into.
func TestRunParallelWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const trials = 4096
	cm, err := Compile[flipState](flipper{})
	if err != nil {
		t.Fatal(err)
	}
	pol := Slowest[flipState]()
	mk := func() Policy[flipState] { return pol }
	run := func() {
		_, _, err := RunParallel[flipState](context.Background(), cm, mk, heads, trials,
			Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 3},
			func(acc *int, _ int, _ Result[flipState]) error { *acc++; return nil },
			func(dst *int, src int) { *dst += src })
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // intern every state these trials visit
	if got := testing.AllocsPerRun(3, run) / trials; got >= 1 {
		t.Errorf("warm RunParallel: %.3f allocations per trial, want < 1", got)
	}
}
