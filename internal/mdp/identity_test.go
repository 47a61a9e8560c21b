// The explorer against the test oracle. The on-the-fly explorer
// (mdp.Explore / mdp.ExplorePacked) builds every MDP; for every model the
// explored MDP must be structurally identical — the same CSR arrays,
// position for position — to the one the dense oracle (oracle_test.go)
// builds from pa.Reachable's state list, and every solver returns the
// same answers on both. The solvers themselves must be deterministic in
// the worker count: parallel sweeps are bit-identical whether one
// goroutine sweeps or eight do (run under -race by make test-race, which
// also exercises the data-sharing discipline of the level schedule).
package mdp_test

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
// densely via the oracle and on the fly via ExplorePacked (with the
// compiled-model cache, as the analysis constructors do).
func exploreProduct[S comparable](t *testing.T, model sched.Model[S], k int, opts mdp.ExploreOptions) (dense, explored *mdp.MDP, dIx, eIx *mdp.Index[sched.State[S]]) {
	t.Helper()
	auto, err := sched.Product[S](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	dense, dIx, err = mdp.DenseFromAutomaton(auto, 0)
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
	if err := mdp.EqualCSR(dense.CSR(), explored.CSR()); err != nil {
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

	dt, err := dense.MaxExpectedTicks(target)
	if err != nil {
		t.Fatal(err)
	}
	et, err := explored.MaxExpectedTicks(target)
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

// identityChunk and identityFanOut lower the explorer's chunk size and
// fan-out threshold for the identity tests (SetChunkForTest), so even
// the small products cross hundreds of chunk boundaries (dining n=3 k=2
// over two thousand), and most chunks expand on goroutines while the
// previous one merges.
const identityChunk, identityFanOut = 16, 4

// identityWorkers are the worker counts every identity test explores
// with: all on the calling goroutine, fewer workers than CPUs on a
// small host, and more.
var identityWorkers = []int{1, 2, 8}

func TestExploreMatchesDenseDining(t *testing.T) {
	cases := []struct{ n, k, horizon int }{{3, 1, 13}, {3, 2, 13}}
	if !testing.Short() {
		cases = append(cases, struct{ n, k, horizon int }{4, 1, 13})
	}
	for _, tc := range cases {
		// The n=3 products cross hundreds to thousands of lowered chunk
		// boundaries; n=4 k=1 (206,254 states) crosses about 200 at the
		// default size, which keeps the test affordable under the race
		// detector.
		restore := func() {}
		if tc.n == 3 {
			restore = mdp.SetChunkForTest(identityChunk, identityFanOut)
		}
		model := dining.MustNew(tc.n)
		for _, workers := range identityWorkers {
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
		restore()
	}
}

func TestExploreMatchesDenseElection(t *testing.T) {
	defer mdp.SetChunkForTest(identityChunk, identityFanOut)()
	for _, n := range []int{3, 4} {
		model := election.MustNew(n)
		for _, workers := range identityWorkers {
			dense, explored, dIx, eIx := exploreProduct[election.State](t, model, 1, mdp.ExploreOptions{Workers: workers})
			requireSameMDP(t, dense, explored, dIx, eIx)
			requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(election.State.HasLeader)), 8)
		}
	}
}

func TestExploreMatchesDenseConsensus(t *testing.T) {
	defer mdp.SetChunkForTest(identityChunk, identityFanOut)()
	model := consensus.MustNew(3, 1)
	for _, workers := range identityWorkers {
		dense, explored, dIx, eIx := exploreProduct[consensus.State](t, model, 1, mdp.ExploreOptions{Workers: workers})
		requireSameMDP(t, dense, explored, dIx, eIx)
		target := eIx.Mask(sched.LiftPred(consensus.State.AllCorrectDecided))
		requireSolverAgreement(t, dense, explored, target, 6)
	}
}

// TestExploreLimitAndBudget pins the two failure modes: the state limit
// fails with pa.ErrLimitExceeded, as pa.Reachable's does, and the byte
// budget fails with a typed *mdp.BudgetError carrying the footprint
// reached.
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

// TestExploreBudgetPerChunk: the budget estimate is checked after every
// merged chunk, so a budget at half the final estimate fails at the very
// chunk whose estimate first crosses it, with that chunk's state count
// and estimate, not up to a BFS level later. Where a chunk ends does not
// depend on the worker count, so neither does the failure.
func TestExploreBudgetPerChunk(t *testing.T) {
	model := dining.MustNew(3)
	cm, err := sim.Compile[dining.State](model)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := sched.Product[dining.State](cm, sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	pack, _ := sched.ProductPacker[dining.State](model)
	trace, err := mdp.ExploreFootprints(auto, pack, mdp.ExploreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 4 {
		t.Fatalf("%d merged chunks, want several", len(trace))
	}
	budget := trace[len(trace)-1].Bytes / 2
	cross := 0
	for trace[cross].Bytes <= budget {
		cross++
	}
	for _, workers := range []int{1, 2} {
		_, _, err := mdp.ExplorePacked(auto, pack, mdp.ExploreOptions{Workers: workers, MemBudget: budget})
		var be *mdp.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *mdp.BudgetError", workers, err)
		}
		if want := trace[cross]; be.States != want.States || be.Bytes != want.Bytes {
			t.Errorf("workers=%d: stopped at %d states, %d bytes; the estimate crossed %d bytes at %d states, %d bytes (chunk %d of %d)",
				workers, be.States, be.Bytes, budget, want.States, want.Bytes, cross+1, len(trace))
		}
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
		reach    []prob.Rat   // ReachWithinTicks at horizon 13
		layers   [][]prob.Rat // ReachWithinTicksLayers, horizons 0..13
		ticks    []float64    // MaxExpectedTicks
		minTicks []float64    // MinExpectedTicks
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
		tv, err := m.MDP.MaxExpectedTicks(target)
		if err != nil {
			t.Fatal(err)
		}
		mv, err := m.MDP.MinExpectedTicks(target)
		if err != nil {
			t.Fatal(err)
		}
		return result{reach: rv, layers: lv, ticks: tv, minTicks: mv}
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
			if got.minTicks[s] != ref.minTicks[s] && !(math.IsInf(got.minTicks[s], 1) && math.IsInf(ref.minTicks[s], 1)) {
				t.Fatalf("workers=%d state %d: min ticks %v != %v (not bit-identical)", workers, s, got.minTicks[s], ref.minTicks[s])
			}
		}
	}
}

// TestSettleDining pins the settle pass on the dining n=3 k=2 product:
// of the 30,922 rows MaxExpectedTicks to C sweeps, 9,732 reach no cycle
// of swept rows and settle by sweep 5, and the other 21,190 are swept
// to the end.
func TestSettleDining(t *testing.T) {
	a, err := dining.NewAnalysisOpts(3, 2, dining.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	settled, live, maxSettle := mdp.SettleCounts(a.MDP, a.Index.Mask(sched.LiftPred(dining.InC)))
	if settled != 9732 || live != 21190 || maxSettle != 5 {
		t.Errorf("%d settled, %d live, max settle sweep %d; want 9732, 21190, 5", settled, live, maxSettle)
	}
}
