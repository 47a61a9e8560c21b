package sim

import (
	"testing"

	"repro/internal/sched"
)

// The oracle identity checks, exported to the external test package,
// whose tests run the case-study models (their policies import sim, so
// only an external test can use them).

func CheckOracleIdentity[S comparable](t *testing.T, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], trials int) {
	t.Helper()
	checkOracleIdentity(t, m, mk, target, opts, trials)
}

func CheckOracleResume[S comparable](t *testing.T, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], trials int) {
	t.Helper()
	checkOracleResume(t, m, mk, target, opts, trials)
}
