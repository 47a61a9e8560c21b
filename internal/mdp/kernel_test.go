package mdp

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/prob"
)

// The tick-bounded solve runs on 62-bit fixed point when the input allows
// it and on rationals otherwise. These tests pin that the kernel choice
// never shows in an answer: both entry points must return exactly the
// rational operator's values, whichever kernel ran.

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
// choices over the given branch distributions. A zero-duration choice
// only moves to lower-numbered states, so the zero-duration graph is a
// DAG; a tick may move anywhere.
func buildTickMDP(pick func(n int) int, dists [][]prob.Rat) (*MDP, []bool) {
	n := 2 + pick(7)
	m := &MDP{NumStates: n, Choices: make([][]Choice, n)}
	target := make([]bool, n)
	for s := 0; s < n; s++ {
		target[s] = pick(4) == 0
		for c := pick(4); c > 0; c-- {
			tick := s == 0 || pick(2) == 0
			ch := Choice{Label: "c", Tick: tick}
			for _, p := range dists[pick(len(dists))] {
				to := pick(n)
				if !tick {
					to = pick(s)
				}
				ch.Branches = append(ch.Branches, Tr{To: to, P: p})
			}
			m.Choices[s] = append(m.Choices[s], ch)
		}
	}
	return m, target
}

// checkKernels requires ReachWithinTicks at every horizon 0..horizon and
// ReachWithinTicksLayers up to horizon to equal the rational operator's
// layers, for both goals, and returns the kernel of every
// ReachWithinTicks answer.
func checkKernels(t testing.TB, m *MDP, target []bool, horizon int) []kernel {
	t.Helper()
	var kernels []kernel
	for _, goal := range []Goal{MinProb, MaxProb} {
		want, err := reachRat(m, target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := m.ReachWithinTicksLayers(target, horizon, goal)
		if err != nil {
			t.Fatal(err)
		}
		if len(layers) != horizon+1 {
			t.Fatalf("goal %v: %d layers, want %d", goal, len(layers), horizon+1)
		}
		for h := 0; h <= horizon; h++ {
			v, err := m.ReachWithinTicks(target, h, goal)
			if err != nil {
				t.Fatal(err)
			}
			k, err := reachKernel(m, target, h, goal)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, k)
			for s := range want[h] {
				if !v[s].Equal(want[h][s]) {
					t.Fatalf("goal %v h=%d s=%d: ReachWithinTicks %v (kernel %d), rational operator %v", goal, h, s, v[s], k, want[h][s])
				}
				if !layers[h][s].Equal(want[h][s]) {
					t.Fatalf("goal %v h=%d s=%d: ReachWithinTicksLayers %v, rational operator %v", goal, h, s, layers[h][s], want[h][s])
				}
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
		m, target := buildTickMDP(rng.Intn, dyadicDists)
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
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
	m := &MDP{NumStates: 3, Choices: [][]Choice{
		{{Label: "roll", Tick: true, Branches: []Tr{{To: 1, P: third}, {To: 0, P: prob.NewRat(2, 3)}}}, moveTo("skip", 2)},
		nil,
		{tickCoin("flip", 1, 0)},
	}}
	target := mask(3, 1)
	for _, k := range checkKernels(t, m, target, 6) {
		if k != kernelRat {
			t.Fatalf("kernel %d answered a model with a 1/3 coin, want the rational operator", k)
		}
	}
	v, err := m.ReachWithinTicks(target, 1, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if want := third; !v[0].Equal(want) {
		t.Errorf("P(0) within 1 tick = %v, want %v", v[0], want)
	}
}

// TestReachKernelsOverfullChoice: every probability in the table is
// dyadic, but one choice's branches sum to 5/4, so fixed-point sums
// could pass 2^62. fixedPoint checks the per-choice sums and the
// rationals answer. The MDP fails Validate; the solvers still run on it.
func TestReachKernelsOverfullChoice(t *testing.T) {
	m := &MDP{NumStates: 3, Choices: [][]Choice{
		{{Label: "over", Tick: true, Branches: []Tr{{To: 1, P: prob.NewRat(3, 4)}, {To: 0, P: half}}}, moveTo("skip", 2)},
		nil,
		{tickCoin("flip", 1, 0)},
	}}
	if err := m.Validate(); err == nil {
		t.Fatal("a choice summing to 5/4 passed Validate")
	}
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
	m := &MDP{NumStates: 2, Choices: [][]Choice{
		{tickCoin("flip", 1, 0)},
		nil,
	}}
	target := mask(2, 1)
	for _, tc := range []struct {
		horizon int
		want    kernel
	}{{62, kernelFixed}, {63, kernelFallback}, {64, kernelFallback}} {
		k, err := reachKernel(m, target, tc.horizon, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if k != tc.want {
			t.Errorf("horizon %d: kernel %d, want %d", tc.horizon, k, tc.want)
		}
		v, err := m.ReachWithinTicks(target, tc.horizon, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		want := prob.One().Sub(prob.FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(tc.horizon)))))
		if !v[0].Equal(want) {
			t.Errorf("horizon %d: P = %v, want %v", tc.horizon, v[0], want)
		}
	}
	// Both entry points, both goals, every horizon through the fallback.
	checkKernels(t, m, target, 64)
}

// FuzzReachKernels builds a small tick MDP from the input bytes, with
// dyadic and 1/3 branch probabilities, and requires both entry points
// to equal the rational operator at every horizon up to the chosen one.
// The kernel must match the input: rationals alone exactly when some
// branch probability is not dyadic.
func FuzzReachKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 1, 1, 4, 0, 2, 3, 1, 0, 5, 2, 2, 1, 9})
	f.Add([]byte{6, 0, 3, 1, 6, 2, 0, 3, 1, 1, 5, 0, 4, 2, 6, 1, 0, 2, 3, 3, 12})
	dists := append(append([][]prob.Rat(nil), dyadicDists...), thirdDists...)
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if n <= 0 || len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		m, target := buildTickMDP(pick, dists)
		m.Workers = 1 + pick(3)
		horizon := pick(13)
		dyadic := true
		for _, cs := range m.Choices {
			for _, ch := range cs {
				for _, br := range ch.Branches {
					if br.P.Equal(third) {
						dyadic = false
					}
				}
			}
		}
		for _, k := range checkKernels(t, m, target, horizon) {
			if (k == kernelRat) == dyadic {
				t.Fatalf("kernel %d for a model with dyadic=%t", k, dyadic)
			}
		}
	})
}
