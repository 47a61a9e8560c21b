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

// SetMaxStates lowers c's interning cap, so a test can run past it
// without a million states.
func SetMaxStates[S comparable](c *Compiled[S], n int64) { c.maxStates = n }
