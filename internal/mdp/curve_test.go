package mdp

import (
	"testing"

	"repro/internal/prob"
)

func TestReachWithinTicksLayers(t *testing.T) {
	// Geometric coin: with h ticks left, state 0 must hold 1 - 2^-h.
	m := hand([][]Choice{
		{tickCoin("flip", 1, 0)},
		nil,
	})
	st, err := m.WorstStrategy(mask(2, 1), every(2), 5, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h <= 5; h++ {
		want := prob.One().Sub(prob.NewRat(1, 1<<uint(h)))
		if v, ok := st.Value(0, h); !ok || !v.Equal(want) {
			t.Errorf("layer %d = %v (in cone %t), want %v", h, v, ok, want)
		}
		if v, ok := st.Value(1, h); !ok || !v.IsOne() {
			t.Errorf("target value at layer %d = %v (in cone %t)", h, v, ok)
		}
		// Layers must agree with the single-horizon solve.
		opt, err := m.WorstAtHorizon(mask(2, 1), mask(2, 0), h, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := st.Value(0, h); !v.Equal(opt.Value) {
			t.Errorf("horizon %d: layers %v vs direct %v", h, v, opt.Value)
		}
	}
	// With more ticks left than the horizon, or fewer than none, the
	// strategy answers nothing.
	for _, bad := range [][2]int{{0, 6}, {0, -1}} {
		if _, ok := st.Value(bad[0], bad[1]); ok {
			t.Errorf("Value%v answered outside the solve", bad)
		}
		if c := st.Choice(bad[0], bad[1]); c != -1 {
			t.Errorf("Choice%v = %d outside the solve, want -1", bad, c)
		}
	}
}

// TestStrategyCone: from state 0 of the chain 0 -tick-> 1 -tick-> 2 to
// horizon 2, state 1 lies one tick out, so the solve evaluates it with
// at most one tick left, and the strategy answers nothing beyond.
func TestStrategyCone(t *testing.T) {
	m := hand([][]Choice{
		{tickTo("a", 1)},
		{tickTo("b", 2)},
		nil,
	})
	st, err := m.WorstStrategy(mask(3, 2), mask(3, 0), 2, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s, h int
		in   bool
	}{{0, 2, true}, {0, 0, true}, {1, 1, true}, {1, 2, false}, {2, 0, true}, {2, 1, false}} {
		if _, ok := st.Value(tc.s, tc.h); ok != tc.in {
			t.Errorf("state %d with %d ticks left: in cone %t, want %t", tc.s, tc.h, ok, tc.in)
		}
	}
	if opt := st.Optimum(); opt.State != 0 || !opt.Value.IsOne() {
		t.Errorf("optimum %v at %d, want 1 at 0", opt.Value, opt.State)
	}
}

func TestWorstWitness(t *testing.T) {
	// 0: adversary picks between a coin (reaches target half the time)
	// and a safe delay loop... make delay lead to a dead end so min play
	// is forced through the coin, and the damning branch is the miss.
	m := hand([][]Choice{
		{tickCoin("flip", 1, 2)},
		nil, // target
		{tickTo("stuck", 2)},
	})
	st, err := m.WorstStrategy(mask(3, 1), mask(3, 0), 4, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	steps := st.Witness()
	if len(steps) == 0 {
		t.Fatal("empty witness")
	}
	first := steps[0]
	if first.Action != "flip" || first.Next != 2 {
		t.Errorf("witness first step = %+v, want flip into the miss branch", first)
	}
	if !first.BranchProb.Equal(prob.Half()) {
		t.Errorf("branch prob = %v", first.BranchProb)
	}
}

func TestWorstWitnessStopsAtTarget(t *testing.T) {
	m := hand([][]Choice{
		{tickTo("go", 1)},
		nil,
	})
	st, err := m.WorstStrategy(mask(2, 1), mask(2, 0), 3, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if steps := st.Witness(); len(steps) != 1 || steps[0].Next != 1 {
		t.Errorf("witness = %+v, want single step into target", steps)
	}
	// Starting at the target: empty witness.
	st, err = m.WorstStrategy(mask(2, 1), mask(2, 1), 3, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if steps := st.Witness(); len(steps) != 0 {
		t.Errorf("witness from target = %+v, want empty", steps)
	}
}

func TestWorstWitnessClockExpiry(t *testing.T) {
	// The minimizing adversary's best move at budget 0 is to tick the
	// clock out; the witness stops there.
	m := hand([][]Choice{
		{tickTo("go", 1)},
		nil,
	})
	st, err := m.WorstStrategy(mask(2, 1), mask(2, 0), 0, MinProb)
	if err != nil {
		t.Fatal(err)
	}
	if steps := st.Witness(); len(steps) != 0 {
		t.Errorf("witness at horizon 0 = %+v, want empty (clock expiry)", steps)
	}
}

// WitnessStep is one step of an extracted worst-case schedule: the walk
// of a strategy over the MDP's own states, which these tests use to pin
// that a strategy's moves stay inside its cone. (dining walks its
// strategies through the full product instead, so its schedules name
// real processes.)
type WitnessStep struct {
	// State is the state index before the step; Choice the index of the
	// adversary's optimal choice (local to the state); Action its label.
	State  int
	Choice int
	Action string
	// Next is the successor followed (the most damning probabilistic
	// branch); BranchProb its probability.
	Next       int
	BranchProb prob.Rat
}

// Witness walks the strategy from its optimum state with the whole
// horizon left: at each state it takes the strategy's move, then the
// branch whose successor has the least value (for a minimizing
// adversary, the most damning outcome). It stops at a target, at a state
// without choices, where the move is a tick with no tick left (the
// adversary lets time expire), or after 4·(horizon+1) steps, and reads
// only values inside the cone.
func (st *Strategy) Witness() []WitnessStep {
	c := st.q.c
	var steps []WitnessStep
	s, h := int32(st.opt.State), st.q.horizon
	for len(steps) < 4*(st.q.horizon+1) {
		k := st.Choice(int(s), h)
		if k < 0 {
			break
		}
		ci := c.choiceRow[s] + int32(k)
		l, left, ok := st.next(ci, h)
		if !ok {
			break
		}
		best := c.branchRow[ci]
		for bi := best + 1; bi < c.branchRow[ci+1]; bi++ {
			if l.value(c.col[bi]).Less(l.value(c.col[best])) {
				best = bi
			}
		}
		steps = append(steps, WitnessStep{State: int(s), Choice: k, Action: c.label(ci), Next: int(c.col[best]), BranchProb: c.ratAt(best)})
		s, h = c.col[best], left
	}
	return steps
}
