// Engine-vs-oracle identity across the three case studies: every trial
// RunParallel runs on a case-study model must equal the uncompiled
// oracle's run of the same trial (oracle_test.go), for every identity
// seed and worker count, under packed and hashed state interning, and
// through an interrupt and resume. The in-package half (hand-built
// models with user moves and a skewed coin) lives in compile_test.go and
// alias_engine_test.go.
package sim_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/sim"
)

func TestCompiledIdentityDining(t *testing.T) {
	const n, trials = 4, 192
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	sim.CheckOracleIdentity(t, dining.MustNew(n), mk, dining.InC, opts, trials)
}

func TestCompiledIdentityElection(t *testing.T) {
	const n, trials = 3, 192
	mk := func() sim.Policy[election.State] { return sim.Slowest[election.State]() }
	sim.CheckOracleIdentity(t, election.MustNew(n), mk, election.State.HasLeader, sim.Options[election.State]{}, trials)
}

// consensusCase is Ben-Or with n=3, f=1 from mixed inputs under the
// crash-the-last-reporter adversary.
func consensusCase(t *testing.T) (*consensus.Model, func() sim.Policy[consensus.State], sim.Options[consensus.State]) {
	t.Helper()
	model := consensus.MustNew(3, 1)
	start, err := model.StartWith([]uint8{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sim.Policy[consensus.State] {
		return consensus.CrashLastReporter(sim.Random[consensus.State](0))
	}
	return model, mk, sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000}
}

func TestCompiledIdentityConsensus(t *testing.T) {
	model, mk, opts := consensusCase(t)
	sim.CheckOracleIdentity(t, model, mk, consensus.State.AllCorrectDecided, opts, 192)
}

// TestCompiledIdentityResume drives the checkpoint/resume path on the
// case studies: a run interrupted mid-flight and resumed on another
// worker count runs every trial as the oracle does.
func TestCompiledIdentityResume(t *testing.T) {
	const n, trials = 4, 640
	sim.CheckOracleResume(t, dining.MustNew(n),
		func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) },
		dining.InC, sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}, trials)
	sim.CheckOracleResume(t, election.MustNew(3), func() sim.Policy[election.State] { return sim.Slowest[election.State]() },
		election.State.HasLeader, sim.Options[election.State]{}, trials)
	model, mk, opts := consensusCase(t)
	sim.CheckOracleResume(t, model, mk, consensus.State.AllCorrectDecided, opts, trials)
}
