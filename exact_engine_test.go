// Dense-vs-sparse identity of the exact engine. The on-the-fly explorer
// (mdp.Explore / mdp.ExplorePacked) must be a pure scalability change:
// for every model the explored MDP is structurally identical — the same
// CSR arrays, position for position — to the densely enumerated one, and
// every solver returns the same answers on both. The solvers themselves
// must be deterministic in the worker count: parallel sweeps are
// bit-identical whether one goroutine sweeps or eight do (run under
// -race by make test-race, which also exercises the data-sharing
// discipline of the level schedule).
package timedpa_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/consensus"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// exploreProduct builds the digitized product of a model both ways:
// densely via FromAutomaton and on the fly via ExplorePacked (with the
// compiled-model cache, as the analysis constructors do).
func exploreProduct[S comparable](t *testing.T, model sched.Model[S], k int, opts mdp.ExploreOptions) (dense, explored *mdp.MDP, dIx, eIx *mdp.Index[sched.State[S]]) {
	t.Helper()
	auto, err := sched.Product[S](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	dense, dIx, err = mdp.FromAutomaton(auto, 0)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sim.Compile[S](model)
	if err != nil {
		t.Fatal(err)
	}
	cauto, err := sched.Product[S](cm, sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	if pack, ok := sched.ProductPacker[S](model); ok {
		explored, eIx, err = mdp.ExplorePacked(cauto, pack, opts)
	} else {
		explored, eIx, err = mdp.Explore(cauto, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dense, explored, dIx, eIx
}

// requireSameMDP pins structural identity: state count, state numbering
// (via the index), and the full CSR arrays.
func requireSameMDP[S comparable](t *testing.T, dense, explored *mdp.MDP, dIx, eIx *mdp.Index[S]) {
	t.Helper()
	if dense.NumStates != explored.NumStates {
		t.Fatalf("dense %d states, explored %d", dense.NumStates, explored.NumStates)
	}
	if dIx.Len() != eIx.Len() {
		t.Fatalf("dense index %d states, explored %d", dIx.Len(), eIx.Len())
	}
	for i := 0; i < dIx.Len(); i++ {
		if dIx.State(i) != eIx.State(i) {
			t.Fatalf("state %d: dense %v != explored %v", i, dIx.State(i), eIx.State(i))
		}
	}
	if err := dense.CSR().Equal(explored.CSR()); err != nil {
		t.Fatal(err)
	}
}

// requireSolverAgreement runs every quantitative solver on both MDPs and
// checks exact equality for the rational analyses and epsilon agreement
// for the floating-point ones.
func requireSolverAgreement(t *testing.T, dense, explored *mdp.MDP, target []bool, horizon int) {
	t.Helper()

	for _, goal := range []mdp.Goal{mdp.MinProb, mdp.MaxProb} {
		dv, err := dense.ReachWithinTicks(target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := explored.ReachWithinTicks(target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		for s := range dv {
			if !dv[s].Equal(ev[s]) {
				t.Fatalf("goal %v state %d: dense %v != explored %v", goal, s, dv[s], ev[s])
			}
		}
	}

	dt, err := dense.MaxExpectedTicks(target, mdp.VIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	et, err := explored.MaxExpectedTicks(target, mdp.VIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range dt {
		if math.Abs(dt[s]-et[s]) > 1e-9 && !(math.IsInf(dt[s], 1) && math.IsInf(et[s], 1)) {
			t.Fatalf("expected ticks state %d: dense %v != explored %v", s, dt[s], et[s])
		}
	}

	dq := dense.MinProbOne(target)
	eq := explored.MinProbOne(target)
	for s := range dq {
		if dq[s] != eq[s] {
			t.Fatalf("MinProbOne state %d: dense %v != explored %v", s, dq[s], eq[s])
		}
	}
}

func TestExploreMatchesDenseDining(t *testing.T) {
	cases := []struct{ n, k, horizon int }{{3, 1, 13}, {3, 2, 13}}
	if !testing.Short() {
		cases = append(cases, struct{ n, k, horizon int }{4, 1, 13})
	}
	for _, tc := range cases {
		model := dining.MustNew(tc.n)
		for _, workers := range []int{1, 4} {
			dense, explored, dIx, eIx := exploreProduct[dining.State](t, model, tc.k, mdp.ExploreOptions{Workers: workers})
			requireSameMDP(t, dense, explored, dIx, eIx)
			requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(dining.InC)), tc.horizon)
			if tc.n == 3 && tc.k == 2 {
				// A branch stores its probability as a one-byte table
				// index: 40.8 B/state here, against 86.1 when every branch
				// kept a float64 and a prob.Rat.
				if b := float64(explored.CSR().MemFootprint()) / float64(explored.NumStates); b > 41 {
					t.Errorf("n=3 k=2: %.2f B/state, want ≤ 41", b)
				}
			}
		}
	}
}

func TestExploreMatchesDenseElection(t *testing.T) {
	for _, n := range []int{3, 4} {
		model := election.MustNew(n)
		dense, explored, dIx, eIx := exploreProduct[election.State](t, model, 1, mdp.ExploreOptions{})
		requireSameMDP(t, dense, explored, dIx, eIx)
		requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(election.State.HasLeader)), 8)
	}
}

func TestExploreMatchesDenseConsensus(t *testing.T) {
	model := consensus.MustNew(3, 1)
	dense, explored, dIx, eIx := exploreProduct[consensus.State](t, model, 1, mdp.ExploreOptions{})
	requireSameMDP(t, dense, explored, dIx, eIx)
	target := eIx.Mask(sched.LiftPred(consensus.State.AllCorrectDecided))
	requireSolverAgreement(t, dense, explored, target, 6)
}

// TestAnalysisOptsMatchesDense pins the user-facing constructors: the
// explorer-backed analyses must compute the paper's headline quantities
// identically to the dense ones.
func TestAnalysisOptsMatchesDense(t *testing.T) {
	ad, err := dining.NewAnalysis(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := dining.NewAnalysisOpts(3, 1, dining.Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.MDP.CSR().Equal(ae.MDP.CSR()); err != nil {
		t.Fatal(err)
	}
	wd := ad.ComposedStatement()
	we := ae.ComposedStatement()
	rd, err := ad.CheckPaperChain()
	if err != nil {
		t.Fatal(err)
	}
	re, err := ae.CheckPaperChain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rd) != len(re) {
		t.Fatalf("check results: %d vs %d", len(rd), len(re))
	}
	for i := range rd {
		if rd[i].Holds != re[i].Holds || !rd[i].WorstProb.Equal(re[i].WorstProb) {
			t.Fatalf("arrow %d: dense (%v, %v) vs explored (%v, %v)", i, rd[i].Holds, rd[i].WorstProb, re[i].Holds, re[i].WorstProb)
		}
	}
	if !wd.Prob.Equal(we.Prob) || !wd.Time.Equal(we.Time) {
		t.Fatalf("composed statement differs: %v vs %v", wd, we)
	}

	ed, err := election.NewAnalysis(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ee, err := election.NewAnalysisOpts(3, 1, election.Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.MDP.CSR().Equal(ee.MDP.CSR()); err != nil {
		t.Fatal(err)
	}
	xd, err := ed.WorstExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	xe, err := ee.WorstExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xd-xe) > 1e-9 {
		t.Fatalf("worst expected time: dense %v vs explored %v", xd, xe)
	}
}

// TestExploreLimitAndBudget pins the two failure modes: the state limit
// mirrors FromAutomaton's pa.ErrLimitExceeded, and the byte budget fails
// with a typed *mdp.BudgetError carrying the footprint reached.
func TestExploreLimitAndBudget(t *testing.T) {
	model := election.MustNew(3)
	auto, err := sched.Product[election.State](model, sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mdp.Explore(auto, mdp.ExploreOptions{Limit: 10}); !errors.Is(err, pa.ErrLimitExceeded) {
		t.Fatalf("limit err = %v, want pa.ErrLimitExceeded", err)
	}
	_, _, err = mdp.Explore(auto, mdp.ExploreOptions{MemBudget: 64})
	if !errors.Is(err, mdp.ErrMemBudget) {
		t.Fatalf("budget err = %v, want mdp.ErrMemBudget", err)
	}
	var be *mdp.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget err = %T, want *mdp.BudgetError", err)
	}
	if be.Budget != 64 || be.Bytes <= 64 || be.States <= 0 {
		t.Fatalf("budget error fields: %+v", be)
	}
}

// TestParallelSweepDeterminism pins the bit-identical-across-workers
// contract of every parallel solver, with the inline-sweep threshold
// forced to zero so small models still take the fan-out path. Under
// -race (make test-race) this also checks the data-sharing discipline.
func TestParallelSweepDeterminism(t *testing.T) {
	defer mdp.SetMinGrainForTest(1)()

	a, err := dining.NewAnalysisOpts(3, 1, dining.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := a.Index.Mask(sched.LiftPred(dining.InC))

	type result struct {
		reach  []prob.Rat   // ReachWithinTicks at horizon 13
		layers [][]prob.Rat // ReachWithinTicksLayers, horizons 0..13
		ticks  []float64
	}
	run := func(workers int) result {
		m, err := dining.NewAnalysisOpts(3, 1, dining.Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rv, err := m.MDP.ReachWithinTicks(target, 13, mdp.MinProb)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := m.MDP.ReachWithinTicksLayers(target, 13, mdp.MinProb)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := m.MDP.MaxExpectedTicks(target, mdp.VIConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return result{reach: rv, layers: lv, ticks: tv}
	}

	ref := run(1)
	for s := range ref.reach {
		if !ref.layers[13][s].Equal(ref.reach[s]) {
			t.Fatalf("state %d: last layer %v != single-horizon %v", s, ref.layers[13][s], ref.reach[s])
		}
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for s := range ref.reach {
			if !got.reach[s].Equal(ref.reach[s]) {
				t.Fatalf("workers=%d state %d: exact %v != %v", workers, s, got.reach[s], ref.reach[s])
			}
			for h := range ref.layers {
				if !got.layers[h][s].Equal(ref.layers[h][s]) {
					t.Fatalf("workers=%d state %d horizon %d: exact %v != %v", workers, s, h, got.layers[h][s], ref.layers[h][s])
				}
			}
			if got.ticks[s] != ref.ticks[s] && !(math.IsInf(got.ticks[s], 1) && math.IsInf(ref.ticks[s], 1)) {
				t.Fatalf("workers=%d state %d: ticks %v != %v (not bit-identical)", workers, s, got.ticks[s], ref.ticks[s])
			}
		}
	}
}
