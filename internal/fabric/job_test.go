package fabric

import (
	"math"
	"strings"
	"testing"
)

// TestNewRunnerRejectsBadBounds: NewRunner is the one gate for `simd
// local`, `simd coordinate` and every worker, so a non-finite deadline
// or time cap, or a negative cap, must be refused there — a NaN passes
// every ordered comparison and would silently end every trial at once
// or print an estimate "within NaN".
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
