// The explorer against the test oracle. The on-the-fly explorer
// (mdp.Explore) builds every MDP; for every model the explored MDP must
// be structurally identical — the same CSR arrays, position for
// position — to the one the dense oracle (oracle_test.go)
// builds from pa.Reachable's state list, and every solver returns the
// same answers on both. The solvers themselves must be deterministic in
// the worker count: parallel sweeps are bit-identical whether one
// goroutine sweeps or eight do (run under -race by make test-race, which
// also exercises the data-sharing discipline of the level schedule).
package mdp_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/consensus"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// exploreProduct builds the digitized product of a model both ways:
// densely via the oracle and on the fly via Explore over the raw model,
// as the analysis constructors do. With more than one worker the model's
// Steps runs on several goroutines at once.
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
	explored, eIx, err = mdp.Explore(auto, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dense, explored, dIx, eIx
}

// fullDining explores the full dining n-ring product at k steps per
// window, the ring's symmetry hidden (sched.Unreduced): every product
// state is its own MDP state.
func fullDining(t *testing.T, n, k int, opts mdp.ExploreOptions) (*mdp.MDP, *mdp.Index[dining.PState]) {
	t.Helper()
	auto, err := sched.Product(sched.Unreduced[dining.State](dining.MustNew(n)), sched.Config{StepsPerWindow: k})
	if err != nil {
		t.Fatal(err)
	}
	m, ix, err := mdp.Explore(auto, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, ix
}

// requireSameMDP pins structural identity: state count, state numbering
// (via the index), and the full CSR arrays.
func requireSameMDP[S comparable](t *testing.T, dense, explored *mdp.MDP, dIx, eIx *mdp.Index[S]) {
	t.Helper()
	if dense.NumStates != explored.NumStates {
		t.Fatalf("dense %d states, explored %d", dense.NumStates, explored.NumStates)
	}
	if dIx.Len() != eIx.Len() {
		t.Fatalf("dense index covers %d states, explored %d", dIx.Len(), eIx.Len())
	}
	for i := range dIx.States() {
		if dIx.State(i) != eIx.State(i) || dIx.Orbit(i) != eIx.Orbit(i) {
			t.Fatalf("state %d: dense %v (orbit %d) != explored %v (orbit %d)", i, dIx.State(i), dIx.Orbit(i), eIx.State(i), eIx.Orbit(i))
		}
	}
	if err := mdp.EqualCSR(dense.CSR(), explored.CSR()); err != nil {
		t.Fatal(err)
	}
}

// requireStrategyValues requires a strategy solved from every state to
// hold want[h][s] for every state s and every h ticks left for which
// want[h] is set.
func requireStrategyValues(t *testing.T, st *mdp.Strategy, want [][]prob.Rat, what string) {
	t.Helper()
	for h, layer := range want {
		for s, w := range layer {
			if v, ok := st.Value(s, h); !ok || !v.Equal(w) {
				t.Fatalf("%s: state %d with %d ticks left: %v (in cone %t), want %v", what, s, h, v, ok, w)
			}
		}
	}
}

// requireSolverAgreement runs every quantitative solver on both MDPs and
// checks exact equality for the rational analyses and epsilon agreement
// for the floating-point ones. The tick-bounded solves from every state
// must agree at the horizon; when oracle is set, both must also equal
// the plain recursion (mdp.TickOracle) at every state and layer. That
// costs rationals throughout, so the identity tests ask for it once per
// small product, and TestParallelSweepDeterminism pins the other worker
// counts to it.
func requireSolverAgreement(t *testing.T, dense, explored *mdp.MDP, target []bool, horizon int, oracle bool) {
	t.Helper()

	for _, goal := range []mdp.Goal{mdp.MinProb, mdp.MaxProb} {
		all := mdp.Every(dense.NumStates)
		ds, err := dense.WorstStrategy(target, all, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		es, err := explored.WorstStrategy(target, all, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]prob.Rat, horizon+1)
		if oracle {
			if want, _, err = mdp.TickOracle(dense, target, horizon, goal); err != nil {
				t.Fatal(err)
			}
			requireStrategyValues(t, ds, want, "dense")
		} else {
			want[horizon] = make([]prob.Rat, dense.NumStates)
			for s := range want[horizon] {
				want[horizon][s], _ = ds.Value(s, horizon)
			}
		}
		requireStrategyValues(t, es, want, "explored")
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
		// The full product (the ring's symmetry hidden), then the
		// quotient the analyses explore: one representative per orbit,
		// whose orbit sizes the oracle's index and the explorer's must
		// agree on too.
		ring := dining.MustNew(tc.n)
		for _, product := range []struct {
			name  string
			model sched.Model[dining.State]
		}{{"full", sched.Unreduced[dining.State](ring)}, {"quotient", ring}} {
			for _, workers := range identityWorkers {
				dense, explored, dIx, eIx := exploreProduct(t, product.model, tc.k, mdp.ExploreOptions{Workers: workers})
				requireSameMDP(t, dense, explored, dIx, eIx)
				requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(dining.InC)), tc.horizon, tc.n == 3 && tc.k == 1 && workers == 1)
				if tc.n == 3 && tc.k == 2 && product.name == "full" {
					// A branch stores its probability as a one-byte table
					// index: 40.8 B/state here, against 86.1 when every
					// branch kept a float64 and a prob.Rat.
					if b := float64(explored.CSR().MemFootprint()) / float64(explored.NumStates); b > 41 {
						t.Errorf("n=3 k=2: %.2f B/state, want ≤ 41", b)
					}
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
			requireSolverAgreement(t, dense, explored, eIx.Mask(sched.LiftPred(election.State.HasLeader)), 8, workers == 1)
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
		requireSolverAgreement(t, dense, explored, target, 6, workers == 1)
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
	auto, err := sched.Product(sched.Unreduced[dining.State](dining.MustNew(3)), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := mdp.ExploreFootprints(auto, mdp.ExploreOptions{Workers: 1})
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
		_, _, err := mdp.Explore(auto, mdp.ExploreOptions{Workers: workers, MemBudget: budget})
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

// TestParallelSweepDeterminism pins that every solver answers the same,
// bit for bit, on the MDPs explored at one, two and eight workers: the
// explorer expands its chunks in parallel, the solvers run on the
// calling goroutine, and the worker count the MDP carries
// (MDP.Workers) reaches no answer. Under -race (make test-race) this
// also checks the explorer's data-sharing discipline.
func TestParallelSweepDeterminism(t *testing.T) {
	m1, ix := fullDining(t, 3, 1, mdp.ExploreOptions{Workers: 1})
	target := ix.Mask(sched.LiftPred(dining.InC))

	// The tick-bounded solve from every state must equal the plain
	// recursion at every state and layer, at every worker count.
	want, _, err := mdp.TickOracle(m1, target, 13, mdp.MinProb)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		ticks    []float64 // MaxExpectedTicks
		minTicks []float64 // MinExpectedTicks
	}
	run := func(workers int) result {
		m, ix := fullDining(t, 3, 1, mdp.ExploreOptions{Workers: workers})
		st, err := m.WorstStrategy(target, mdp.Every(ix.Len()), 13, mdp.MinProb)
		if err != nil {
			t.Fatal(err)
		}
		requireStrategyValues(t, st, want, fmt.Sprintf("workers=%d", workers))
		tv, err := m.MaxExpectedTicks(target)
		if err != nil {
			t.Fatal(err)
		}
		mv, err := m.MinExpectedTicks(target)
		if err != nil {
			t.Fatal(err)
		}
		return result{ticks: tv, minTicks: mv}
	}

	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for s := range ref.ticks {
			if got.ticks[s] != ref.ticks[s] && !(math.IsInf(got.ticks[s], 1) && math.IsInf(ref.ticks[s], 1)) {
				t.Fatalf("workers=%d state %d: ticks %v != %v (not bit-identical)", workers, s, got.ticks[s], ref.ticks[s])
			}
			if got.minTicks[s] != ref.minTicks[s] && !(math.IsInf(got.minTicks[s], 1) && math.IsInf(ref.minTicks[s], 1)) {
				t.Fatalf("workers=%d state %d: min ticks %v != %v (not bit-identical)", workers, s, got.minTicks[s], ref.minTicks[s])
			}
		}
	}
}

// TestStrategyMatchesOracleDining pins the strategy the witness walks on
// the composed claim's solve: dining n=3 k=1, T to C at 13 ticks, from T.
// At every (state, ticks left) of the cone its value and its first
// optimal choice equal the plain recursion's value and argmin, and its
// optimum is the oracle's minimum over T, 15/16 at the first T state
// attaining it.
func TestStrategyMatchesOracleDining(t *testing.T) {
	m, ix := fullDining(t, 3, 1, mdp.ExploreOptions{})
	target := ix.Mask(sched.LiftPred(dining.InC))
	from := ix.Mask(sched.LiftPred(dining.InT))
	st, err := m.WorstStrategy(target, from, 13, mdp.MinProb)
	if err != nil {
		t.Fatal(err)
	}
	value, choice, err := mdp.TickOracle(m, target, 13, mdp.MinProb)
	if err != nil {
		t.Fatal(err)
	}
	cone := 0
	for h, layer := range value {
		for s, w := range layer {
			v, ok := st.Value(s, h)
			if !ok {
				if c := st.Choice(s, h); c != -1 {
					t.Fatalf("state %d with %d ticks left: choice %d outside the cone", s, h, c)
				}
				continue
			}
			cone++
			if !v.Equal(w) {
				t.Fatalf("state %d with %d ticks left: strategy %v, oracle %v", s, h, v, w)
			}
			if c := st.Choice(s, h); c != choice[h][s] {
				t.Fatalf("state %d with %d ticks left: strategy picks choice %d, oracle %d", s, h, c, choice[h][s])
			}
		}
	}
	at := -1
	for s, in := range from {
		if in && (at < 0 || value[13][s].Less(value[13][at])) {
			at = s
		}
	}
	opt := st.Optimum()
	if opt.State != at || !opt.Value.Equal(value[13][at]) || opt.Value.String() != "15/16" {
		t.Errorf("optimum %v at state %d; oracle %v at state %d, want 15/16", opt.Value, opt.State, value[13][at], at)
	}
	if cone == 0 {
		t.Fatal("empty cone")
	}
	t.Logf("%d cone (state, ticks left) pairs of %d", cone, len(value)*ix.Len())
}

// TestSettleDining pins the settle pass on the dining n=3 k=2 product:
// of the 30,922 rows of the full product MaxExpectedTicks to C sweeps,
// 9,732 reach no cycle of swept rows and settle by sweep 5, and the
// other 21,190 are swept to the end; on the quotient the analysis
// explores, 1,690 rows settle, 3,576 stay live, and the last settles at
// the same sweep.
func TestSettleDining(t *testing.T) {
	a, err := dining.NewAnalysisOpts(3, 2, dining.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	full, fullIx := fullDining(t, 3, 2, mdp.ExploreOptions{})
	for _, tc := range []struct {
		m                        *mdp.MDP
		ix                       *mdp.Index[dining.PState]
		settled, live, maxSettle int
	}{
		{full, fullIx, 9732, 21190, 5},
		{a.MDP, a.Index, 1690, 3576, 5},
	} {
		settled, live, maxSettle := mdp.SettleCounts(tc.m, tc.ix.Mask(sched.LiftPred(dining.InC)))
		if settled != tc.settled || live != tc.live || maxSettle != tc.maxSettle {
			t.Errorf("%d states: %d settled, %d live, max settle sweep %d; want %d, %d, %d",
				tc.m.NumStates, settled, live, maxSettle, tc.settled, tc.live, tc.maxSettle)
		}
	}
}
