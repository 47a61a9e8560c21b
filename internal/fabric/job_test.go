package fabric

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNewRunnerRejectsBadBounds: NewRunner is the one gate for `simd
// local`, `simd coordinate` and every worker, so a non-finite deadline
// or time cap, or a negative cap, must be refused there — a NaN passes
// every ordered comparison and would silently end every trial at once
// or print an estimate "within NaN" — and so must a trial budget past
// sim.MaxTrials, whose chunk tables no process could allocate.
func TestNewRunnerRejectsBadBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ttt := func(s JobSpec) JobSpec { s.Estimator = EstimatorTimeToTarget; return s }
	for _, tc := range []struct {
		name  string
		edit  func(*JobSpec)
		field string // named in the error; "" when the spec is valid
	}{
		{"defaults", func(*JobSpec) {}, ""},
		{"explicit caps", func(s *JobSpec) { s.MaxTime, s.MaxEvents = 50, 1000 }, ""},
		{"time-to-target ignores a zero within", func(s *JobSpec) { *s = ttt(*s); s.Within = 0 }, ""},
		{"within NaN", func(s *JobSpec) { s.Within = nan }, "within"},
		{"within +Inf", func(s *JobSpec) { s.Within = inf }, "within"},
		{"within -Inf", func(s *JobSpec) { s.Within = -inf }, "within"},
		{"time-to-target within NaN", func(s *JobSpec) { *s = ttt(*s); s.Within = nan }, "within"},
		{"max_time NaN", func(s *JobSpec) { s.MaxTime = nan }, "max_time"},
		{"max_time +Inf", func(s *JobSpec) { s.MaxTime = inf }, "max_time"},
		{"max_time -Inf", func(s *JobSpec) { s.MaxTime = -inf }, "max_time"},
		{"max_time negative", func(s *JobSpec) { s.MaxTime = -1 }, "max_time"},
		{"max_events negative", func(s *JobSpec) { s.MaxEvents = -1 }, "max_events"},
		{"trials at the cap", func(s *JobSpec) { s.Trials = sim.MaxTrials }, ""},
		{"trials past the cap", func(s *JobSpec) { s.Trials = sim.MaxTrials + 1 }, "trials"},
		{"trials 2^50", func(s *JobSpec) { s.Trials = 1 << 50 }, "trials"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testJob(64)
			tc.edit(&spec)
			_, err := NewRunner(spec)
			switch {
			case tc.field == "" && err != nil:
				t.Fatalf("NewRunner(%+v): %v", spec, err)
			case tc.field != "" && err == nil:
				t.Fatalf("NewRunner(%+v) accepted the spec", spec)
			case tc.field != "" && !strings.Contains(err.Error(), tc.field):
				t.Fatalf("NewRunner(%+v) = %v, want an error naming %s", spec, err, tc.field)
			}
		})
	}
}

// TestRangedRunAllocatesByRange: a fabric lease runs a few chunks of a
// job, so what RunRange allocates must follow the lease, not the job.
// Sizing the engine's per-chunk tables by the whole budget made these 16
// chunks of a 2^26-trial job allocate 59.9 MB.
func TestRangedRunAllocatesByRange(t *testing.T) {
	r, err := NewRunner(JobSpec{Model: "election", N: 3, Estimator: EstimatorTimeToTarget, Trials: 1 << 26, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lease := sim.ChunkRange{Lo: 1 << 19, Hi: 1<<19 + 16}
	run := func() {
		t.Helper()
		cp, _, err := r.RunRange(context.Background(), 1, lease, EngineHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.Chunks) != 16 {
			t.Fatalf("ranged run returned %d chunk records, want 16", len(cp.Chunks))
		}
	}
	run() // warm the transition cache, which is shared by every lease
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 16-chunk lease allocated %d bytes, want < 1 MiB", got)
	}
}
