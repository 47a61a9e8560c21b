package mdp

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
)

// mask builds a target mask for an MDP of n states.
func mask(n int, targets ...int) []bool {
	out := make([]bool, n)
	for _, t := range targets {
		out[t] = true
	}
	return out
}

// tickTo builds a deterministic tick choice.
func tickTo(label string, to int) Choice {
	return Choice{Label: label, Tick: true, Branches: []Tr{{To: to, P: prob.One()}}}
}

// moveTo builds a deterministic zero-duration choice.
func moveTo(label string, to int) Choice {
	return Choice{Label: label, Branches: []Tr{{To: to, P: prob.One()}}}
}

// tickCoin builds a tick choice flipping fairly between two successors.
func tickCoin(label string, a, b int) Choice {
	return Choice{Label: label, Tick: true, Branches: []Tr{
		{To: a, P: prob.Half()},
		{To: b, P: prob.Half()},
	}}
}

func TestReachWithinTicksChain(t *testing.T) {
	// 0 -tick-> 1 -tick-> 2 (target, absorbing).
	m := hand([][]Choice{
		{tickTo("a", 1)},
		{tickTo("b", 2)},
		nil,
	})
	target := mask(3, 2)
	tests := []struct {
		horizon int
		want    string
	}{
		{horizon: 0, want: "0"},
		{horizon: 1, want: "0"},
		{horizon: 2, want: "1"},
		{horizon: 5, want: "1"},
	}
	for _, goal := range []Goal{MinProb, MaxProb} {
		for _, tt := range tests {
			v, err := m.WorstAtHorizon(target, mask(3, 0), tt.horizon, goal)
			if err != nil {
				t.Fatalf("WorstAtHorizon: %v", err)
			}
			if got := v.Value.String(); got != tt.want {
				t.Errorf("goal %v horizon %d: P = %s, want %s", goal, tt.horizon, got, tt.want)
			}
		}
	}
}

func TestReachWithinTicksChoice(t *testing.T) {
	// From 0 the adversary picks: tick to target 1, or tick to sink 2.
	m := hand([][]Choice{
		{tickTo("good", 1), tickTo("bad", 2)},
		nil,
		{tickTo("stay", 2)},
	})
	target := mask(3, 1)

	vMin, err := m.WorstAtHorizon(target, mask(3, 0), 10, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMin.Value.IsZero() {
		t.Errorf("min P = %v, want 0", vMin.Value)
	}
	vMax, err := m.WorstAtHorizon(target, mask(3, 0), 10, MaxProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMax.Value.IsOne() {
		t.Errorf("max P = %v, want 1", vMax.Value)
	}
}

func TestReachWithinTicksGeometric(t *testing.T) {
	// Each tick flips a fair coin: target 1 or retry 0.
	m := hand([][]Choice{
		{tickCoin("flip", 1, 0)},
		nil,
	})
	target := mask(2, 1)
	for h, want := range map[int]prob.Rat{
		0: prob.Zero(),
		1: prob.Half(),
		2: prob.NewRat(3, 4),
		3: prob.NewRat(7, 8),
	} {
		v, err := m.WorstAtHorizon(target, mask(2, 0), h, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Value.Equal(want) {
			t.Errorf("horizon %d: P = %v, want %v", h, v.Value, want)
		}
	}
}

func TestReachWithinTicksZeroDurationTail(t *testing.T) {
	// A zero-duration move after the last tick still counts as within the
	// bound: 0 -tick-> 1 -move-> 2 (target) is reachable within 1 tick.
	m := hand([][]Choice{
		{tickTo("t", 1)},
		{moveTo("m", 2)},
		nil,
	})
	target := mask(3, 2)
	v, err := m.WorstAtHorizon(target, mask(3, 0), 1, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Value.IsOne() {
		t.Errorf("P = %v, want 1 (zero-duration tail)", v.Value)
	}
	// But with horizon 0 the tick itself is out of budget.
	v0, err := m.WorstAtHorizon(target, mask(3, 0), 0, MaxProb)
	if err != nil {
		t.Fatal(err)
	}
	if !v0.Value.IsZero() {
		t.Errorf("P = %v at horizon 0, want 0", v0.Value)
	}
}

func TestReachWithinTicksMinPrefersLateTick(t *testing.T) {
	// The minimizing adversary at the deadline can tick to discard the
	// remaining obligation: state 0 chooses a zero-duration move into the
	// target or a tick into the target. At horizon 0, ticking exceeds the
	// deadline so min picks it; max picks the free move.
	m := hand([][]Choice{
		{moveTo("now", 1), tickTo("later", 1)},
		nil,
	})
	target := mask(2, 1)
	vMin, err := m.WorstAtHorizon(target, mask(2, 0), 0, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMin.Value.IsZero() {
		t.Errorf("min P = %v, want 0", vMin.Value)
	}
	vMax, err := m.WorstAtHorizon(target, mask(2, 0), 0, MaxProb)
	if err != nil {
		t.Fatal(err)
	}
	if !vMax.Value.IsOne() {
		t.Errorf("max P = %v, want 1", vMax.Value)
	}
}

func TestReachWithinTicksZenoCycle(t *testing.T) {
	m := hand([][]Choice{
		{moveTo("spin", 0), tickTo("t", 1)},
		nil,
	})
	_, err := m.WorstAtHorizon(mask(2, 1), mask(2, 0), 3, MinProb)
	if !errors.Is(err, ErrZenoCycle) {
		t.Errorf("err = %v, want ErrZenoCycle", err)
	}
}

func TestReachWithinTicksBadInput(t *testing.T) {
	m := hand([][]Choice{nil})
	if _, err := m.WorstAtHorizon(mask(2, 0), mask(1, 0), 1, MinProb); err == nil {
		t.Error("mismatched mask accepted")
	}
	if _, err := m.WorstAtHorizon(mask(1), mask(1, 0), -1, MinProb); err == nil {
		t.Error("negative horizon accepted")
	}
}

// TestWorstWithinTicks pins the optimum over a source set on a hand-built
// MDP: state 0 flips a fair coin into the target each tick, state 2 ticks
// into 0, and state 4 chooses, without a tick, between 0 and the dead end
// 3. The first state in index order wins a tie.
func TestWorstWithinTicks(t *testing.T) {
	m := hand([][]Choice{
		{tickCoin("flip", 1, 0)},
		nil, // the target
		{tickTo("t", 0)},
		nil, // a dead end
		{moveTo("a", 0), moveTo("b", 3)},
	})
	target := mask(5, 1)
	for _, tc := range []struct {
		goal  Goal
		from  []int
		want  []string
		state []int
	}{
		{MinProb, []int{0, 2}, []string{"0", "0", "1/2", "3/4"}, []int{0, 2, 2, 2}},
		{MaxProb, []int{0, 2}, []string{"0", "1/2", "3/4", "7/8"}, []int{0, 0, 0, 0}},
		{MinProb, []int{0, 4}, []string{"0", "0", "0", "0"}, []int{0, 4, 4, 4}},
		{MaxProb, []int{2, 4}, []string{"0", "1/2", "3/4", "7/8"}, []int{2, 4, 4, 4}},
		{MinProb, []int{1, 3}, []string{"0", "0", "0", "0"}, []int{3, 3, 3, 3}},
		{MaxProb, []int{3, 1}, []string{"1", "1", "1", "1"}, []int{1, 1, 1, 1}},
	} {
		got, err := m.WorstWithinTicks(target, mask(5, tc.from...), 3, tc.goal)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("goal %v from %v: %d horizons, want 4", tc.goal, tc.from, len(got))
		}
		for h, opt := range got {
			if opt.Value.String() != tc.want[h] || opt.State != tc.state[h] {
				t.Errorf("goal %v from %v h=%d: %v at %d, want %s at %d", tc.goal, tc.from, h, opt.Value, opt.State, tc.want[h], tc.state[h])
			}
		}
		checkWorst(t, m, target, mask(5, tc.from...), 5)
	}

	for _, bad := range []struct {
		name    string
		from    []bool
		horizon int
	}{
		{"empty source", mask(5), 2},
		{"short source", mask(4, 0), 2},
		{"negative horizon", mask(5, 0), -1},
	} {
		if _, err := m.WorstWithinTicks(target, bad.from, bad.horizon, MinProb); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

func TestExploreTimedCoin(t *testing.T) {
	// Timed automaton: 0 -tick-> coin: heads(1) absorbing target, tails
	// back to 0; plus a zero-duration reset choice 0 -> 0? (skipped: keep
	// it acyclic on non-tick edges).
	auto := &pa.Automaton[int]{
		Name:  "timed-coin",
		Start: []int{0},
		Steps: func(s int) []pa.Step[int] {
			if s != 0 {
				return nil
			}
			return []pa.Step[int]{
				{Action: "tick", Next: prob.MustUniform(1, 0)},
			}
		},
		Duration: func(a string) prob.Rat {
			if a == "tick" {
				return prob.One()
			}
			return prob.Zero()
		},
	}
	m, ix, err := Explore(auto, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if ix.Len() != 2 {
		t.Fatalf("indexed %d states, want 2", ix.Len())
	}
	id0, ok := ix.ID(0)
	if !ok {
		t.Fatal("state 0 not indexed")
	}
	if got := ix.State(id0); got != 0 {
		t.Errorf("State(ID(0)) = %d, want 0", got)
	}
	if c := m.CSR(); !c.tick.get(c.choiceRow[id0]) {
		t.Error("tick action not marked as tick choice")
	}

	target := ix.Mask(func(s int) bool { return s == 1 })
	v, err := m.WorstAtHorizon(target, mask(2, id0), 2, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if want := prob.NewRat(3, 4); !v.Value.Equal(want) {
		t.Errorf("P = %v, want %v", v.Value, want)
	}

	if got := ix.Where(func(s int) bool { return s == 1 }); len(got) != 1 {
		t.Errorf("Where found %d states, want 1", len(got))
	}
}

func TestExploreBadDuration(t *testing.T) {
	auto := &pa.Automaton[int]{
		Start: []int{0},
		Steps: func(s int) []pa.Step[int] {
			if s != 0 {
				return nil
			}
			return []pa.Step[int]{{Action: "halftick", Next: prob.Point(1)}}
		},
		Duration: func(string) prob.Rat { return prob.Half() },
	}
	_, _, err := Explore(auto, ExploreOptions{})
	if !errors.Is(err, ErrBadDuration) {
		t.Errorf("err = %v, want ErrBadDuration", err)
	}
}

func TestQualitative(t *testing.T) {
	// 0: choice A -> 1 (target), choice B -> 2 (sink with self loop).
	// 3: single fair-coin choice between 1 and 3 (a.s. reaches target).
	m := hand([][]Choice{
		{moveTo("A", 1), moveTo("B", 2)},
		nil,
		{moveTo("stay", 2)},
		{{Label: "flip", Branches: []Tr{{To: 1, P: prob.Half()}, {To: 3, P: prob.Half()}}}},
	})
	target := mask(4, 1)

	avoid := m.Prob0E(target)
	for s, want := range []bool{true, false, true, false} {
		if avoid[s] != want {
			t.Errorf("Prob0E[%d] = %t, want %t", s, avoid[s], want)
		}
	}

	one := m.MinProbOne(target)
	for s, want := range []bool{false, true, false, true} {
		if one[s] != want {
			t.Errorf("MinProbOne[%d] = %t, want %t", s, one[s], want)
		}
	}

	pos := m.MaxProbPositive(target)
	for s, want := range []bool{true, true, false, true} {
		if pos[s] != want {
			t.Errorf("MaxProbPositive[%d] = %t, want %t", s, pos[s], want)
		}
	}

	sure := m.MaxProbOne(target)
	for s, want := range []bool{true, true, false, true} {
		if sure[s] != want {
			t.Errorf("MaxProbOne[%d] = %t, want %t", s, sure[s], want)
		}
	}
}

func TestMaxExpectedTicks(t *testing.T) {
	t.Run("geometric", func(t *testing.T) {
		m := hand([][]Choice{
			{tickCoin("flip", 1, 0)},
			nil,
		})
		v, err := m.MaxExpectedTicks(mask(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-2) > 1e-9 {
			t.Errorf("E = %g, want 2", v[0])
		}
	})
	t.Run("adversary maximizes", func(t *testing.T) {
		// Choice between a fair coin (E=2) and a 1/4 coin (E=4).
		m := hand([][]Choice{
			{
				tickCoin("fair", 1, 0),
				{Label: "biased", Tick: true, Branches: []Tr{
					{To: 1, P: prob.NewRat(1, 4)},
					{To: 0, P: prob.NewRat(3, 4)},
				}},
			},
			nil,
		})
		v, err := m.MaxExpectedTicks(mask(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-4) > 1e-9 {
			t.Errorf("E = %g, want 4", v[0])
		}
	})
	t.Run("escapable target is infinite", func(t *testing.T) {
		m := hand([][]Choice{
			{tickTo("good", 1), tickTo("bad", 2)},
			nil,
			{tickTo("stay", 2)},
		})
		v, err := m.MaxExpectedTicks(mask(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(v[0], 1) {
			t.Errorf("E = %g, want +Inf", v[0])
		}
	})
}

func TestMinExpectedTicks(t *testing.T) {
	t.Run("picks the faster coin", func(t *testing.T) {
		m := hand([][]Choice{
			{
				tickCoin("fair", 1, 0),
				{Label: "biased", Tick: true, Branches: []Tr{
					{To: 1, P: prob.NewRat(1, 4)},
					{To: 0, P: prob.NewRat(3, 4)},
				}},
			},
			nil,
		})
		v, err := m.MinExpectedTicks(mask(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-2) > 1e-9 {
			t.Errorf("E_min = %g, want 2 (the fair coin)", v[0])
		}
	})
	t.Run("unreachable target is infinite", func(t *testing.T) {
		m := hand([][]Choice{
			{tickTo("stay", 0)},
			nil,
		})
		v, err := m.MinExpectedTicks(mask(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(v[0], 1) {
			t.Errorf("E_min = %g, want +Inf", v[0])
		}
	})
	t.Run("target reachable but not almost surely is infinite", func(t *testing.T) {
		// State 0 may wait a tick forever or flip a coin between the
		// target and a dead end: no scheduler reaches the target almost
		// surely, though one reaches it with positive probability.
		m := hand([][]Choice{
			{tickTo("wait", 0), tickCoin("flip", 1, 2)},
			nil,
			nil,
		})
		target := mask(3, 1)
		if got := m.MaxProbOne(target); !slices.Equal(got, []bool{false, true, false}) {
			t.Errorf("MaxProbOne = %v, want only the target", got)
		}
		v, err := m.MinExpectedTicks(target)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(v[0], 1) {
			t.Errorf("E_min = %g, want +Inf", v[0])
		}
	})
	t.Run("min below max", func(t *testing.T) {
		m := hand([][]Choice{
			{
				tickCoin("fair", 1, 0),
				{Label: "slow", Tick: true, Branches: []Tr{
					{To: 1, P: prob.NewRat(1, 8)},
					{To: 0, P: prob.NewRat(7, 8)},
				}},
			},
			nil,
		})
		lo, err := m.MinExpectedTicks(mask(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		hi, err := m.MaxExpectedTicks(mask(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !(lo[0] < hi[0]) {
			t.Errorf("E_min %g not below E_max %g", lo[0], hi[0])
		}
	})
}

// TestHorizonMonotonicity checks, on a pseudo-randomly generated family of
// tick-structured MDPs, that reach probabilities are monotone in the
// horizon and that min never exceeds max.
func TestHorizonMonotonicity(t *testing.T) {
	build := func(seed uint32) *MDP {
		// Three states, state 2 absorbing; choices derived from seed bits.
		next := func() int { seed = seed*1664525 + 1013904223; return int(seed>>16) % 3 }
		choices := make([][]Choice, 3)
		for s := 0; s < 2; s++ {
			nChoices := 1 + next()%2
			for c := 0; c < nChoices; c++ {
				a, b := next(), next()
				if a == b {
					choices[s] = append(choices[s], tickTo("d", a))
				} else {
					choices[s] = append(choices[s], tickCoin("c", a, b))
				}
			}
		}
		return hand(choices)
	}
	for seed := uint32(1); seed <= 200; seed++ {
		m := build(seed)
		target := mask(3, 2)
		var prevMin, prevMax prob.Rat
		for h := 0; h <= 6; h++ {
			vMin, err := m.WorstAtHorizon(target, mask(3, 0), h, MinProb)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			vMax, err := m.WorstAtHorizon(target, mask(3, 0), h, MaxProb)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if vMax.Value.Less(vMin.Value) {
				t.Fatalf("seed %d horizon %d: max %v < min %v", seed, h, vMax.Value, vMin.Value)
			}
			if h > 0 && (vMin.Value.Less(prevMin) || vMax.Value.Less(prevMax)) {
				t.Fatalf("seed %d horizon %d: probabilities not monotone", seed, h)
			}
			prevMin, prevMax = vMin.Value, vMax.Value
		}
	}
}
