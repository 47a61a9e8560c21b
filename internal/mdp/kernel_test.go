package mdp

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/prob"
)

// The tick-bounded solve runs on 62-bit fixed point when the input allows
// it and on rationals otherwise. These tests pin that the kernel choice
// never shows in an answer: every face of the solve must return exactly
// what the plain rational recursion (tickOracle) gives, whichever kernel
// ran.

var (
	half, quarter = prob.Half(), prob.NewRat(1, 4)
	third         = prob.NewRat(1, 3)

	// dyadicDists are branch distributions the fixed-point kernel holds
	// exactly; thirdDists are ones it cannot.
	dyadicDists = [][]prob.Rat{
		{prob.One()},
		{half, half},
		{quarter, prob.NewRat(3, 4)},
		{prob.NewRat(3, 4), quarter},
		{quarter, quarter, half},
	}
	thirdDists = [][]prob.Rat{
		{third, prob.NewRat(2, 3)},
		{third, third, third},
	}
)

// buildTickMDP builds a small tick MDP from pick, a source of choices in
// [0, n): 2 to 8 states, some of them targets, each with up to three
// choices over the given branch distributions. Unless zeno is set, a
// zero-duration choice only moves to lower-numbered states, so the
// zero-duration graph is a DAG; a tick may move anywhere.
func buildTickMDP(pick func(n int) int, dists [][]prob.Rat, zeno bool) (*MDP, []bool) {
	n := 2 + pick(7)
	choices := make([][]Choice, n)
	target := make([]bool, n)
	for s := 0; s < n; s++ {
		target[s] = pick(4) == 0
		for c := pick(4); c > 0; c-- {
			tick := s == 0 || pick(2) == 0
			ch := Choice{Label: "c", Tick: tick}
			for _, p := range dists[pick(len(dists))] {
				to := pick(n)
				if !tick && !zeno {
					to = pick(s)
				}
				ch.Branches = append(ch.Branches, Tr{To: to, P: p})
			}
			choices[s] = append(choices[s], ch)
		}
	}
	return hand(choices), target
}

// every returns a source mask holding all n states.
func every(n int) []bool {
	all := make([]bool, n)
	for s := range all {
		all[s] = true
	}
	return all
}

// checkKernels solves every state of m, for both goals, to each horizon
// 0..horizon as a strategy, and requires its value and first optimal
// choice at every state and layer to equal the oracle's. It returns the
// kernel of every solve.
func checkKernels(t testing.TB, m *MDP, target []bool, horizon int) []kernel {
	t.Helper()
	all := every(m.NumStates)
	var kernels []kernel
	for _, goal := range []Goal{MinProb, MaxProb} {
		value, choice, err := tickOracle(m, target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		for top := 0; top <= horizon; top++ {
			k, err := solveKernel(m, target, all, top, goal)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, k)
			st, err := m.WorstStrategy(target, all, top, goal)
			if err != nil {
				t.Fatal(err)
			}
			for h := 0; h <= top; h++ {
				for s := range m.NumStates {
					v, ok := st.Value(s, h)
					if !ok || !v.Equal(value[h][s]) {
						t.Fatalf("goal %v horizon %d: state %d with %d ticks left: strategy %v (in cone %t, kernel %d), oracle %v",
							goal, top, s, h, v, ok, k, value[h][s])
					}
					if c := st.Choice(s, h); c != choice[h][s] {
						t.Fatalf("goal %v horizon %d: state %d with %d ticks left: strategy picks choice %d, oracle %d",
							goal, top, s, h, c, choice[h][s])
					}
				}
			}
		}
	}
	return kernels
}

// checkWorst solves from the states of from, for both goals, and requires
// each face of the solve to give the value and the first state of from
// that a scan of the oracle's layers finds optimal: WorstWithinTicks at
// every horizon 0..horizon, WorstAtHorizon and the strategy's optimum at
// the horizon. The strategy must hold the oracle's value and choice at
// every cone (state, ticks left), and its witness must stay in the cone.
// It returns the kernel of each goal's solve.
func checkWorst(t testing.TB, m *MDP, target, from []bool, horizon int) []kernel {
	t.Helper()
	var kernels []kernel
	for _, goal := range []Goal{MinProb, MaxProb} {
		value, choice, err := tickOracle(m, target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		k, err := solveKernel(m, target, from, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, k)
		curve, err := m.WorstWithinTicks(target, from, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		last, err := m.WorstAtHorizon(target, from, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.WorstStrategy(target, from, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		if len(curve) != horizon+1 {
			t.Fatalf("goal %v: %d horizons, want %d", goal, len(curve), horizon+1)
		}
		var want Optimum
		for h, layer := range value {
			at := -1
			for s, in := range from {
				if in && (at < 0 || goal.better(layer[s], layer[at])) {
					at = s
				}
			}
			want = Optimum{Value: layer[at], State: at}
			if got := curve[h]; got.State != at || !got.Value.Equal(layer[at]) {
				t.Fatalf("goal %v h=%d: WorstWithinTicks %v at state %d (kernel %d), scan of the oracle %v at state %d",
					goal, h, got.Value, got.State, k, layer[at], at)
			}
		}
		for name, got := range map[string]Optimum{"WorstAtHorizon": last, "the strategy's optimum": st.Optimum()} {
			if got.State != want.State || !got.Value.Equal(want.Value) {
				t.Fatalf("goal %v: %s %v at state %d, scan of the oracle %v at state %d",
					goal, name, got.Value, got.State, want.Value, want.State)
			}
		}
		for h := 0; h <= horizon; h++ {
			for s, in := range from {
				v, ok := st.Value(s, h)
				if in && !ok {
					t.Fatalf("goal %v: source state %d with %d ticks left lies outside the cone", goal, s, h)
				}
				if ok && (!v.Equal(value[h][s]) || st.Choice(s, h) != choice[h][s]) {
					t.Fatalf("goal %v: state %d with %d ticks left: strategy %v, choice %d; oracle %v, choice %d",
						goal, s, h, v, st.Choice(s, h), value[h][s], choice[h][s])
				}
			}
		}
		c, h := m.CSR(), horizon
		for _, step := range st.Witness() {
			if st.Choice(step.State, h) != step.Choice {
				t.Fatalf("goal %v: witness step %+v with %d ticks left leaves the strategy", goal, step, h)
			}
			if c.tick.get(c.choiceRow[step.State] + int32(step.Choice)) {
				h--
			}
			if _, ok := st.Value(step.Next, h); !ok {
				t.Fatalf("goal %v: witness step %+v reaches state %d with %d ticks left, outside the cone", goal, step, step.Next, h)
			}
		}
	}
	return kernels
}

// TestReachKernelsAgree solves seeded random tick MDPs with dyadic
// branch probabilities at horizons 0..12 and worker counts {1,2,8}, with
// the parallel grain forced to 1 so the sweeps fan out. The fixed-point
// kernel must be selected (a model may still fall back when a value
// outgrows 62 bits) and every answer must equal the rational operator's.
func TestReachKernelsAgree(t *testing.T) {
	defer SetMinGrainForTest(1)()
	fixed := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, target := buildTickMDP(rng.Intn, dyadicDists, false)
		for _, workers := range []int{1, 2, 8} {
			m.Workers = workers
			for _, k := range checkKernels(t, m, target, 12) {
				switch k {
				case kernelRat:
					t.Fatalf("seed %d: dyadic model solved on rationals alone", seed)
				case kernelFixed:
					fixed++
				}
			}
		}
	}
	if fixed == 0 {
		t.Fatal("no answer came from the fixed-point kernel")
	}
}

// TestReachKernelsThirdCoin: a 1/3 coin is not a multiple of 2^-62, so
// the fixed-point kernel is never taken and the rationals answer.
func TestReachKernelsThirdCoin(t *testing.T) {
	m := hand([][]Choice{
		{{Label: "roll", Tick: true, Branches: []Tr{{To: 1, P: third}, {To: 0, P: prob.NewRat(2, 3)}}}, moveTo("skip", 2)},
		nil,
		{tickCoin("flip", 1, 0)},
	})
	target := mask(3, 1)
	for _, k := range checkKernels(t, m, target, 6) {
		if k != kernelRat {
			t.Fatalf("kernel %d answered a model with a 1/3 coin, want the rational operator", k)
		}
	}
	v, err := m.WorstAtHorizon(target, mask(3, 0), 1, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if want := third; !v.Value.Equal(want) {
		t.Errorf("P(0) within 1 tick = %v, want %v", v.Value, want)
	}
	for _, k := range checkWorst(t, m, target, mask(3, 0, 2), 6) {
		if k != kernelRat {
			t.Fatalf("kernel %d answered a source-set solve on a model with a 1/3 coin, want the rational operator", k)
		}
	}
}

// TestReachKernelsOverfullChoice: every probability in the table is
// dyadic, but one choice's branches sum to 5/4, so fixed-point sums
// could pass 2^62. fixedPoint checks the per-choice sums and the
// rationals answer. The MDP is invalid on purpose; the solvers still run
// on it.
func TestReachKernelsOverfullChoice(t *testing.T) {
	m := hand([][]Choice{
		{{Label: "over", Tick: true, Branches: []Tr{{To: 1, P: prob.NewRat(3, 4)}, {To: 0, P: half}}}, moveTo("skip", 2)},
		nil,
		{tickCoin("flip", 1, 0)},
	})
	for _, k := range checkKernels(t, m, mask(3, 1), 6) {
		if k != kernelRat {
			t.Fatalf("kernel %d answered a model with a choice summing past 1, want the rational operator", k)
		}
	}
}

// TestReachKernelsFallbackMidSolve: on the geometric fair coin the value
// within h ticks is 1 - 2^-h. Up to h = 62 it fits the fixed point; at
// h = 63 a product drops a bit, and the solve reruns on rationals.
func TestReachKernelsFallbackMidSolve(t *testing.T) {
	m := hand([][]Choice{
		{tickCoin("flip", 1, 0)},
		nil,
	})
	target := mask(2, 1)
	for _, tc := range []struct {
		horizon int
		want    kernel
	}{{62, kernelFixed}, {63, kernelFallback}, {64, kernelFallback}} {
		k, err := solveKernel(m, target, mask(2, 0), tc.horizon, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if k != tc.want {
			t.Errorf("horizon %d: kernel %d, want %d", tc.horizon, k, tc.want)
		}
		v, err := m.WorstAtHorizon(target, mask(2, 0), tc.horizon, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		want := prob.One().Sub(prob.FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(tc.horizon)))))
		if !v.Value.Equal(want) {
			t.Errorf("horizon %d: P = %v, want %v", tc.horizon, v.Value, want)
		}
	}
	// Every state, both goals, every horizon through the fallback.
	checkKernels(t, m, target, 64)
	// A solve from state 0 alone falls back the same way, on its cone.
	for _, tc := range []struct {
		horizon int
		want    kernel
	}{{62, kernelFixed}, {63, kernelFallback}} {
		for _, k := range checkWorst(t, m, target, mask(2, 0), tc.horizon) {
			if k != tc.want {
				t.Errorf("solve from state 0 to horizon %d: kernel %d, want %d", tc.horizon, k, tc.want)
			}
		}
	}
}

// FuzzReachKernels builds a small tick MDP from the input bytes, with
// dyadic and 1/3 branch probabilities, and requires the strategy from
// every state to equal the oracle at every horizon up to the chosen one.
// The kernel must match the input: rationals alone exactly when some
// branch probability is not dyadic.
func FuzzReachKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 4, 0, 2, 3, 1, 0, 5, 2, 2, 1, 9})
	f.Add([]byte{6, 0, 3, 1, 6, 2, 0, 3, 1, 1, 5, 0, 4, 2, 6, 1, 0, 2, 3, 3, 12})
	dists := append(append([][]prob.Rat(nil), dyadicDists...), thirdDists...)
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := picker(data)
		m, target := buildTickMDP(pick, dists, false)
		m.Workers = 1 + pick(3)
		horizon := pick(13)
		dyadic := true
		for _, p := range m.CSR().probs.rat {
			if p.Equal(third) {
				dyadic = false
			}
		}
		for _, k := range checkKernels(t, m, target, horizon) {
			if (k == kernelRat) == dyadic {
				t.Fatalf("kernel %d for a model with dyadic=%t", k, dyadic)
			}
		}
	})
}

// FuzzWorstWithinTicksMatchesOracle builds a small tick MDP from the
// input bytes, with dyadic and 1/3 branch probabilities, and a random
// source mask, which may hold targets and states without choices. At
// every horizon up to the chosen one (0..8), for both goals and at one
// and two workers with the parallel grain forced to 1, the cone solve
// must give the value and the first state that a scan of the oracle's
// layers over the mask finds optimal, and its strategy the oracle's
// values and choices (checkWorst): the cone and the settled shortcut
// never change an answer.
func FuzzWorstWithinTicksMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 4, 0, 2, 3, 1, 0, 5, 2, 2, 1, 9, 0, 1, 0, 1, 1, 8})
	f.Add([]byte{6, 0, 3, 1, 6, 2, 0, 3, 1, 1, 5, 0, 4, 2, 6, 1, 0, 2, 3, 3, 12, 1, 0, 0, 1, 0, 1, 0, 5})
	f.Add([]byte{7, 1, 2, 1, 0, 3, 2, 1, 7, 0, 2, 1, 1, 3, 4, 0, 0, 6, 1, 2, 3, 2, 1, 1, 0, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8})
	dists := append(append([][]prob.Rat(nil), dyadicDists...), thirdDists...)
	defer SetMinGrainForTest(1)()
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := picker(data)
		m, target := buildTickMDP(pick, dists, false)
		from := make([]bool, m.NumStates)
		for s := range from {
			from[s] = pick(2) == 1
		}
		from[pick(m.NumStates)] = true
		horizon := pick(9)
		for _, workers := range []int{1, 2} {
			m.Workers = workers
			checkWorst(t, m, target, from, horizon)
		}
	})
}
