// The Monte Carlo engine against the exact checker. Trial-for-trial
// identity with the uncompiled oracle is pinned in internal/sim
// (identity_test.go); this file pins the distribution the engine's alias
// tables sample against the exact answers of internal/mdp.
package timedpa_test

import (
	"context"
	"testing"

	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestAliasDefaultMatchesExact pins the engine's sampler against the
// exact checker: alias-table sampling must reproduce its answers. The
// oracle is the digitized product of the 3-process election protocol
// (internal/mdp): under the Slowest policy — the digitized
// worst case, stepping exactly at each unit-time deadline — the dense
// simulator realizes the MDP's minimizing adversary, so at even
// deadlines P[leader within H] equals the MinProb strategy's value at
// the start state with H ticks left (3/8 at H=2: exactly one of three
// fair coins comes up on the surviving side). Per horizon, the runs of
// seeds 1, 2 and 3 are merged and the pooled Wilson interval (z=3) must
// cover the exact value — merging keeps the test deterministic while
// damping the per-seed wiggle of a 4000-trial sample.
func TestAliasDefaultMatchesExact(t *testing.T) {
	const n, trials = 3, 4000
	auto, err := sched.Product[election.State](election.MustNew(n), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start, ok := ix.ID(auto.Start[0])
	if !ok {
		t.Fatal("start state not enumerated")
	}
	mask := ix.Mask(sched.LiftPred(election.State.HasLeader))

	// One strategy from the start state holds the exact value at every
	// deadline: with h ticks left, its value is P[leader within h].
	from := make([]bool, ix.Len())
	from[start] = true
	st, err := m.WorstStrategy(mask, from, 8, mdp.MinProb)
	if err != nil {
		t.Fatal(err)
	}
	model := election.MustNew(n)
	for _, horizon := range []int{2, 4, 8} {
		v, ok := st.Value(start, horizon)
		if !ok {
			t.Fatalf("start state outside its own strategy's cone at %d ticks", horizon)
		}
		if horizon == 2 && !v.Equal(prob.NewRat(3, 8)) {
			t.Fatalf("one-round election probability = %v, want 3/8", v)
		}
		exact := v.Float64()
		var pooled stats.Proportion
		for _, seed := range []int64{1, 2, 3} {
			prop, _, err := sim.EstimateReachProbParallel[election.State](context.Background(), model,
				func() sim.Policy[election.State] { return sim.Slowest[election.State]() },
				election.State.HasLeader, float64(horizon), trials,
				sim.Options[election.State]{}, sim.ParallelOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pooled.Merge(prop)
		}
		lo, hi, err := pooled.Wilson(3)
		if err != nil {
			t.Fatal(err)
		}
		if lo > exact || hi < exact {
			t.Errorf("H=%d: alias estimate interval [%g, %g] excludes exact %g", horizon, lo, hi, exact)
		}
	}
}
