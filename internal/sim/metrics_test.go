package sim

// Tests for the Metrics telemetry hook: the engine must report exactly the
// run that happened (one batch per committed chunk whose totals match the
// trials, balanced chunk claims, quarantine/restore/checkpoint events
// matching the RunReport), must not change the estimate, and must not
// allocate on the hot path.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// countingMetrics is a zero-allocation Metrics used to check the engine's
// call pattern; every field is atomic so any worker count is safe.
type countingMetrics struct {
	trials, quarantined, chunks, restored, checkpoints atomic.Int64
	chunkTrials, reached, events, batches              atomic.Int64
	active, maxActive                                  atomic.Int64
	negSeconds, stalled, badSlices                     atomic.Int64
}

func (c *countingMetrics) TrialBatchDone(trials, reached int, events []int64, reachTimes []float64, seconds float64) {
	c.batches.Add(1)
	c.trials.Add(int64(trials))
	c.reached.Add(int64(reached))
	for _, e := range events {
		c.events.Add(e)
	}
	if len(events) != trials || len(reachTimes) != reached {
		c.badSlices.Add(1)
	}
	if seconds < 0 {
		c.negSeconds.Add(1)
	}
}
func (c *countingMetrics) TrialQuarantined(trial int) { c.quarantined.Add(1) }
func (c *countingMetrics) TrialStalled(trial int)     { c.stalled.Add(1) }
func (c *countingMetrics) ChunkActive(delta int) {
	now := c.active.Add(int64(delta))
	for {
		max := c.maxActive.Load()
		if now <= max || c.maxActive.CompareAndSwap(max, now) {
			return
		}
	}
}
func (c *countingMetrics) ChunkDone(chunk, trials int) {
	c.chunks.Add(1)
	c.chunkTrials.Add(int64(trials))
}
func (c *countingMetrics) TrialsRestored(n int) { c.restored.Add(int64(n)) }
func (c *countingMetrics) CheckpointSaved()     { c.checkpoints.Add(1) }

// runTotals is what a run's trials themselves report to RunParallel's
// observe callback: the reference the hook's batches must add up to.
type runTotals struct {
	est                     stats.Proportion
	trials, reached, events int64
}

// countRun runs the flipper under the slowest policy with RunParallel,
// totalling every observed trial; within is the reach-probability bound.
func countRun(within float64, trials int, popts ParallelOptions) (runTotals, RunReport, error) {
	return RunParallel(context.Background(), flipper{}, mkSlowest, heads, trials, Options[flipState]{}, popts,
		func(acc *runTotals, _ int, res Result[flipState]) error {
			acc.est.Observe(res.Reached && res.ReachedAt <= within)
			acc.trials++
			acc.events += int64(res.Events)
			if res.Reached {
				acc.reached++
			}
			return nil
		},
		func(dst *runTotals, src runTotals) {
			dst.est.Merge(src.est)
			dst.trials += src.trials
			dst.reached += src.reached
			dst.events += src.events
		})
}

// TestMetricsCallPattern checks that, for every worker count, the hook
// sees exactly the run that happened — batches covering every trial with
// the observed reach and step totals, balanced chunk claims, chunk trial
// counts summing to the budget — and that the estimate is bit-identical
// to an uninstrumented run.
func TestMetricsCallPattern(t *testing.T) {
	const trials = 200
	ref, refRep, err := countRun(2, trials, ParallelOptions{Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		var cm countingMetrics
		got, rep, err := countRun(2, trials, ParallelOptions{Workers: workers, Seed: 9, Metrics: &cm})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != ref || rep.Completed != refRep.Completed {
			t.Errorf("workers=%d: instrumented run %+v differs from reference %+v", workers, got, ref)
		}
		if n := cm.trials.Load(); n != trials || n != got.trials {
			t.Errorf("workers=%d: batches cover %d trials, observed %d, want %d", workers, n, got.trials, trials)
		}
		if n := cm.chunkTrials.Load(); n != trials {
			t.Errorf("workers=%d: ChunkDone trials sum = %d, want %d", workers, n, trials)
		}
		wantChunks := int64((trials + parallelChunkSize - 1) / parallelChunkSize)
		if n := cm.chunks.Load(); n != wantChunks {
			t.Errorf("workers=%d: ChunkDone called %d times, want %d", workers, n, wantChunks)
		}
		if a := cm.active.Load(); a != 0 {
			t.Errorf("workers=%d: ChunkActive unbalanced: %d", workers, a)
		}
		if max := cm.maxActive.Load(); max < 1 || max > int64(workers) {
			t.Errorf("workers=%d: max in-flight chunks = %d, want 1..%d", workers, max, workers)
		}
		if cm.reached.Load() != got.reached || cm.events.Load() != got.events || got.reached == 0 || got.events == 0 {
			t.Errorf("workers=%d: outcome fields not forwarded (reached=%d events=%d, observed %d and %d)",
				workers, cm.reached.Load(), cm.events.Load(), got.reached, got.events)
		}
		if cm.negSeconds.Load() != 0 || cm.badSlices.Load() != 0 {
			t.Errorf("workers=%d: %d negative chunk wall-times, %d batches with mismatched slices",
				workers, cm.negSeconds.Load(), cm.badSlices.Load())
		}
		if cm.quarantined.Load() != 0 || cm.restored.Load() != 0 || cm.checkpoints.Load() != 0 {
			t.Errorf("workers=%d: spurious quarantine=%d/restore=%d/checkpoint=%d calls",
				workers, cm.quarantined.Load(), cm.restored.Load(), cm.checkpoints.Load())
		}
	}
}

// TestMetricsQuarantineCheckpointRestore drives the remaining hook methods:
// a panicking-policy run under a checkpoint sink must report every
// quarantine and every sink call, and resuming from its final token must
// report the restored trials without re-running any.
func TestMetricsQuarantineCheckpointRestore(t *testing.T) {
	const trials = 2000
	mk := mkPanicky(0.01)

	var cm countingMetrics
	saved := 0
	_, rep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{
			Workers: 2, Seed: 9, MaxPanics: trials, Metrics: &cm,
			CheckpointSink: func(*Checkpoint) error { saved++; return nil },
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined == 0 {
		t.Fatal("injected panics did not fire; test is vacuous")
	}
	if got := cm.quarantined.Load(); got != int64(rep.Quarantined) {
		t.Errorf("TrialQuarantined called %d times, report says %d", got, rep.Quarantined)
	}
	if got := cm.trials.Load(); got != int64(rep.Completed) {
		t.Errorf("batches cover %d trials, report says %d completed", got, rep.Completed)
	}
	if got := cm.checkpoints.Load(); got != int64(saved) || saved == 0 {
		t.Errorf("CheckpointSaved called %d times, sink ran %d times", got, saved)
	}

	// Resume from the completed run's token: everything restores (the
	// engine restores whole chunks, quarantined trials included), nothing
	// re-runs, and no checkpoints are written.
	var cm2 countingMetrics
	_, rep2, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mk, heads, 2, trials,
		Options[flipState]{}, ParallelOptions{
			Workers: 2, Seed: 9, MaxPanics: trials, Metrics: &cm2, Resume: rep.Checkpoint,
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := cm2.restored.Load(); got != int64(rep2.Resumed) || got != trials {
		t.Errorf("TrialsRestored = %d, report.Resumed = %d, want %d", got, rep2.Resumed, trials)
	}
	if got := cm2.trials.Load(); got != 0 {
		t.Errorf("resumed run re-ran %d trials", got)
	}
	if got := cm2.checkpoints.Load(); got != 0 {
		t.Errorf("resumed run reported %d checkpoint saves", got)
	}
}

// TestMetricsInterruptedRun: a cancelled run still balances ChunkActive
// and reports only the trials that actually completed.
func TestMetricsInterruptedRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var cm countingMetrics
	_, rep, err := EstimateReachProbParallel[flipState](ctx, flipper{}, mkSlowest, heads, 2, 500,
		Options[flipState]{}, ParallelOptions{Workers: 2, Seed: 1, Metrics: &cm})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if cm.active.Load() != 0 {
		t.Errorf("ChunkActive unbalanced after interrupt: %d", cm.active.Load())
	}
	if got := cm.trials.Load(); got != int64(rep.Completed) {
		t.Errorf("batched trial count %d != report.Completed %d", got, rep.Completed)
	}
}

// TestMetricsAddZeroAllocs is the zero-overhead acceptance criterion:
// enabling a conforming (atomic-only) Metrics implementation must add no
// per-trial allocations, and with Metrics nil the hot path pays only a nil
// check. The comparison is whole-run: fixed per-run overhead (goroutines,
// chunk slices, checkpoint records) is identical on both sides, so any
// per-trial leak shows up as a delta proportional to the trial count.
func TestMetricsAddZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const trials = 256
	run := func(met Metrics) func() {
		return func() {
			_, _, err := EstimateReachProbParallel[flipState](context.Background(), flipper{}, mkSlowest, heads, 2, trials,
				Options[flipState]{}, ParallelOptions{Workers: 1, Seed: 1, Metrics: met})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var cm countingMetrics
	disabled := testing.AllocsPerRun(10, run(nil))
	enabled := testing.AllocsPerRun(10, run(&cm))
	if delta := enabled - disabled; delta > 1 {
		t.Errorf("enabling metrics added %.1f allocs per run (%.4f/trial), want 0",
			delta, delta/trials)
	}
}

func TestRunReportString(t *testing.T) {
	cases := []struct {
		rep  RunReport
		want string
	}{
		{RunReport{Total: 100, Completed: 100}, "100/100 trials"},
		{RunReport{Total: 100, Completed: 100, Resumed: 40}, "100/100 trials (40 restored from checkpoint)"},
		{RunReport{Total: 100, Completed: 98, Quarantined: 2}, "98/100 trials (2 panicking trials quarantined)"},
		{RunReport{Total: 100, Completed: 60, Interrupted: true}, "60/100 trials (interrupted)"},
		{RunReport{Total: 200, Completed: 120, Resumed: 64, Quarantined: 1, Interrupted: true},
			"120/200 trials (64 restored from checkpoint, 1 panicking trials quarantined, interrupted)"},
	}
	for _, c := range cases {
		if got := c.rep.String(); got != c.want {
			t.Errorf("RunReport%+v.String() = %q, want %q", c.rep, got, c.want)
		}
	}
}
