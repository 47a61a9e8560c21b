package sim

// Tests for the per-trial watchdog: stuck trials are quarantined exactly
// like panics — deterministically across worker counts, with a
// seed-exact repro record — and an armed watchdog never perturbs the
// estimate of a healthy run.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// autoAdvance drives a FakeClock forward in the background so watchdog
// timeouts fire during a live run without real sleeping.
func autoAdvance(t *testing.T, c *fault.FakeClock) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Advance(time.Second)
				time.Sleep(time.Millisecond)
			}
		}
	}()
}

// mkStalling returns a policy factory that blocks forever (until release
// closes) on a frac fraction of trials. As with mkPanicky, the decision
// is the trial RNG's first draw — a pure function of the trial seed — so
// which trials stall is deterministic across worker counts.
func mkStalling(frac float64, release <-chan struct{}) func() Policy[flipState] {
	return func() Policy[flipState] {
		first := true
		inner := Slowest[flipState]()
		return PolicyFunc[flipState](func(v *View[flipState], rng *rand.Rand) (Choice, bool) {
			if first {
				first = false
				if rng.Float64() < frac {
					<-release
				}
			}
			return inner.Choose(v, rng)
		})
	}
}

// TestWatchdogQuarantinesStalled: stalled trials are quarantined with
// kind "stall", the stalled set is identical for every worker count and
// predictable from the trial seeds alone, and the surviving estimate is
// bit-identical across worker counts.
func TestWatchdogQuarantinesStalled(t *testing.T) {
	const (
		trials = 192
		seed   = 17
		frac   = 0.04
	)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })

	// The stalled set every run must produce, derived from the seeds
	// through the engine's own trial source.
	var wantStalled []int
	for i := 0; i < trials; i++ {
		if newTrialRNG(trialSeed(seed, i)).Float64() < frac {
			wantStalled = append(wantStalled, i)
		}
	}
	if len(wantStalled) == 0 {
		t.Fatal("test needs at least one stalling trial; adjust seed/frac")
	}

	type outcome struct {
		est     float64
		stalled []int
	}
	var outcomes []outcome
	for _, workers := range []int{1, 2, 8} {
		clock := fault.NewFakeClock(time.Unix(0, 0))
		autoAdvance(t, clock)
		prop, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{},
			mkStalling(frac, release), heads, 2, trials, Options[flipState]{},
			ParallelOptions{Workers: workers, Seed: seed, MaxPanics: trials,
				TrialTimeout: 30 * time.Second, Clock: clock})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stalled != len(wantStalled) || rep.Quarantined != rep.Stalled {
			t.Fatalf("workers=%d: report %+v, want %d stalled (all quarantines)", workers, rep, len(wantStalled))
		}
		if rep.Completed != trials-rep.Stalled {
			t.Fatalf("workers=%d: Completed = %d, want %d", workers, rep.Completed, trials-rep.Stalled)
		}
		var got []int
		for _, pr := range rep.Panics {
			if pr.Kind != RecordStalled {
				t.Fatalf("workers=%d: record %+v has kind %q, want %q", workers, pr, pr.Kind, RecordStalled)
			}
			if pr.Seed != trialSeed(seed, pr.Trial) {
				t.Fatalf("workers=%d: trial %d recorded seed %d, want %d",
					workers, pr.Trial, pr.Seed, trialSeed(seed, pr.Trial))
			}
			// The recorded seed replays the stall: the same first draw
			// crosses the same threshold.
			if newTrialRNG(pr.Seed).Float64() >= frac {
				t.Fatalf("workers=%d: recorded seed %d does not reproduce the stall", workers, pr.Seed)
			}
			got = append(got, pr.Trial)
		}
		sort.Ints(got)
		if !reflect.DeepEqual(got, wantStalled) {
			t.Fatalf("workers=%d: stalled trials %v, want %v", workers, got, wantStalled)
		}
		est, err := prop.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, outcome{est: est, stalled: got})
	}
	for _, o := range outcomes[1:] {
		if o.est != outcomes[0].est {
			t.Fatalf("estimate differs across worker counts: %v vs %v", o.est, outcomes[0].est)
		}
	}
}

// TestWatchdogBudgetExhausted: with a zero quarantine budget the first
// stalled trial aborts the run with a typed, seed-carrying error whose
// message says how to replay it.
func TestWatchdogBudgetExhausted(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	clock := fault.NewFakeClock(time.Unix(0, 0))
	autoAdvance(t, clock)
	_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{},
		mkStalling(1.0, release), heads, 2, 128, Options[flipState]{},
		ParallelOptions{Workers: 2, Seed: 5, TrialTimeout: 10 * time.Second, Clock: clock})
	if !errors.Is(err, ErrTrialStalled) {
		t.Fatalf("err = %v, want ErrTrialStalled", err)
	}
	var se *TrialStalledError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *TrialStalledError", err)
	}
	if se.Trial != 0 || se.Seed != TrialRNGSeed(5, 0) {
		t.Fatalf("stall error names trial %d seed %d, want trial 0 seed %d", se.Trial, se.Seed, TrialRNGSeed(5, 0))
	}
	if se.Timeout != 10*time.Second {
		t.Fatalf("stall error timeout = %v, want 10s", se.Timeout)
	}
	// The replay hint must name the engine's own trial source: a
	// rand.NewSource(seed) replay draws a different stream.
	if msg := se.Error(); !strings.Contains(msg, "sim.ReproTrial(") || strings.Contains(msg, "rand.NewSource") {
		t.Fatalf("stall error %q: replay hint must name sim.ReproTrial and not rand.NewSource", msg)
	}
}

// TestWatchdogDoesNotPerturbHealthyRuns: arming the watchdog on a run
// with no stalls yields the bit-identical estimate of an unwatched run —
// the watchdog goroutine shares the trial's RNG, it does not draw from it.
func TestWatchdogDoesNotPerturbHealthyRuns(t *testing.T) {
	const trials = 500
	want, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	clock := fault.NewFakeClock(time.Unix(0, 0))
	autoAdvance(t, clock)
	got, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{Workers: 4, Seed: 23, TrialTimeout: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled != 0 || rep.Quarantined != 0 {
		t.Fatalf("healthy run reported %d stalled, %d quarantined", rep.Stalled, rep.Quarantined)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watched run differs from unwatched: %+v vs %+v", got, want)
	}
}

// TestRunReportStalledString: the one-line report distinguishes panicking
// from stalled quarantines.
func TestRunReportStalledString(t *testing.T) {
	s := RunReport{Total: 10, Completed: 7, Quarantined: 3, Stalled: 1}.String()
	if !strings.Contains(s, "2 panicking trials quarantined") || !strings.Contains(s, "1 stalled trials quarantined") {
		t.Fatalf("report = %q", s)
	}
}
