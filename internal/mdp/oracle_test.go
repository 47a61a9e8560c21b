package mdp

// The test oracles. Explore is the only production builder;
// fromAutomaton is an independent dense one, so the identity tests
// (identity_test.go) and FuzzExploreMatchesDense can pin the explorer's
// state numbering and arrays against it: it numbers states by calling
// pa.Reachable, then fills the CSR state by state from that list. The
// reference value iteration (expectedTicksOracle) and the pass-loop
// Prob0E (prob0EOracle) are the solvers the compiled sweep program and
// the worklist replaced, and maxProbOneOracle is MaxProbOne as pass
// loops; FuzzExpectedTicksMatchesOracle and FuzzProb0EMatchesOracle pin
// the production solvers to them. tickOracle is the plain tick-bounded
// recursion on rationals, every state at every layer, that the cone
// solve and its strategy are pinned to (kernel_test.go and the identity
// tests). This file also holds the per-state choice form that hand-built
// test MDPs are written in.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/pa"
	"repro/internal/prob"
)

// Tr is one probabilistic branch of a hand-built choice.
type Tr struct {
	// To is the index of the successor state.
	To int
	// P is the branch probability.
	P prob.Rat
}

// Choice is one nondeterministic alternative of a hand-built state.
type Choice struct {
	Label    string
	Tick     bool
	Branches []Tr
}

// hand builds the MDP whose state s offers choices[s]. It validates
// nothing, so a test may build an invalid MDP on purpose (a target out of
// range, branches not summing to one); it panics only when the choices
// use more distinct probabilities than the CSR can index.
func hand(choices [][]Choice) *MDP {
	b := newCSRBuilder()
	for _, cs := range choices {
		b.startState()
		for _, ch := range cs {
			b.addChoice(ch.Label, ch.Tick)
			for _, tr := range ch.Branches {
				if err := b.addBranch(int32(tr.To), tr.P); err != nil {
					panic(err)
				}
			}
		}
	}
	return &MDP{NumStates: len(choices), csr: b.finish()}
}

// fromAutomaton is the dense builder: it enumerates m's reachable states
// with pa.Reachable (and its limit), then converts each state's steps in
// that order. Actions of duration one become tick choices, duration zero
// ordinary ones; any other duration is ErrBadDuration.
func fromAutomaton[S comparable](m *pa.Automaton[S], limit int) (*MDP, *Index[S], error) {
	states, err := m.Reachable(limit)
	if err != nil {
		return nil, nil, err
	}
	id := make(map[S]int, len(states))
	for i, s := range states {
		id[s] = i
	}
	b := newCSRBuilder()
	for _, s := range states {
		b.startState()
		for _, step := range m.Steps(s) {
			var tick bool
			switch d := m.DurationOf(step.Action); {
			case d.IsZero():
			case d.IsOne():
				tick = true
			default:
				return nil, nil, fmt.Errorf("%w: action %q has duration %v", ErrBadDuration, step.Action, d)
			}
			b.addChoice(step.Action, tick)
			for _, o := range step.Next.Outcomes() {
				j, ok := id[o.Value]
				if !ok {
					return nil, nil, fmt.Errorf("mdp: successor of %v via %q not enumerated", s, step.Action)
				}
				if err := b.addBranch(int32(j), o.Prob); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return &MDP{NumStates: len(states), csr: b.finish()}, newIndex(states, m.Orbit), nil
}

// equalCSR reports whether two CSR structures are identical: same states,
// choices, branches, tick marks, labels, successor columns, and exact
// branch probabilities, position for position. It returns nil on
// equality and a description of the first difference otherwise.
func equalCSR(c, o *CSR) error {
	if c.n != o.n {
		return fmt.Errorf("csr: %d states != %d states", c.n, o.n)
	}
	if nc, no := c.NumChoices(), o.NumChoices(); nc != no {
		return fmt.Errorf("csr: %d choices != %d choices", nc, no)
	}
	if nb, no := c.NumBranches(), o.NumBranches(); nb != no {
		return fmt.Errorf("csr: %d branches != %d branches", nb, no)
	}
	for s := 0; s <= c.n; s++ {
		if c.choiceRow[s] != o.choiceRow[s] {
			return fmt.Errorf("csr: state %d starts at choice %d vs %d", s, c.choiceRow[s], o.choiceRow[s])
		}
	}
	for ci := int32(0); int(ci) < c.NumChoices(); ci++ {
		if c.branchRow[ci] != o.branchRow[ci] {
			return fmt.Errorf("csr: choice %d starts at branch %d vs %d", ci, c.branchRow[ci], o.branchRow[ci])
		}
		if c.tick.get(ci) != o.tick.get(ci) {
			return fmt.Errorf("csr: choice %d tick %v vs %v", ci, c.tick.get(ci), o.tick.get(ci))
		}
		if c.label(ci) != o.label(ci) {
			return fmt.Errorf("csr: choice %d label %q vs %q", ci, c.label(ci), o.label(ci))
		}
	}
	for bi := range c.col {
		if c.col[bi] != o.col[bi] {
			return fmt.Errorf("csr: branch %d targets %d vs %d", bi, c.col[bi], o.col[bi])
		}
		if p, q := c.ratAt(int32(bi)), o.ratAt(int32(bi)); !p.Equal(q) {
			return fmt.Errorf("csr: branch %d probability %v vs %v", bi, p, q)
		}
	}
	return nil
}

// expectedTicksOracle is the reference value iteration: the closure loop
// that MaxExpectedTicks (maximize) and MinExpectedTicks ran before the
// sweep program. Every sweep copies prev into cur, then walks every
// state of the plan in level order and evaluates each updated state's
// choices in CSR order.
func expectedTicksOracle(m *MDP, target []bool, maximize bool) ([]float64, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	c := m.CSR()
	var finite []bool
	if maximize {
		finite = minProbOneOracle(m, target)
	} else {
		finite = maxProbOneOracle(m, target)
	}
	prev := make([]float64, c.n)
	skip := make([]bool, c.n)
	for s := range prev {
		switch {
		case target[s]:
			skip[s] = true
		case !finite[s]:
			prev[s] = math.Inf(1)
			skip[s] = true
		}
	}
	worst := math.Inf(-1)
	if !maximize {
		worst = math.Inf(1)
	}
	pf := c.probs.f
	eval := func(s int32, nonTick, tick []float64) float64 {
		best := worst
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			val := 0.0
			layer := nonTick
			if c.tick.get(ci) {
				val = 1.0
				layer = tick
			}
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				val += pf[c.pi[bi]] * layer[c.col[bi]]
			}
			if maximize == (val > best) && val != best {
				best = val
			}
		}
		return best
	}

	plan := c.sweepPlan()
	cur := make([]float64, c.n)
	for iter := 0; iter < viMaxIter; iter++ {
		copy(cur, prev)
		nonTick := cur
		if plan.jacobi {
			nonTick = prev
		}
		delta := 0.0
		for _, s := range plan.order {
			if skip[s] {
				continue
			}
			nv := eval(s, nonTick, prev)
			if d := math.Abs(nv - prev[s]); d > delta {
				delta = d
			}
			cur[s] = nv
		}
		prev, cur = cur, prev
		if delta <= viEpsilon {
			return prev, nil
		}
	}
	return nil, fmt.Errorf("%w after %d sweeps", ErrNoConvergence, viMaxIter)
}

// prob0EOracle is the pass-loop Prob0E: full passes over the CSR, each
// dropping every in-set non-terminal state with no choice whose branches
// all stay in the set, until a pass changes nothing.
func prob0EOracle(m *MDP, target []bool) []bool {
	c := m.CSR()
	in := make([]bool, c.n)
	for s := range in {
		in[s] = !target[s]
	}
	for changed := true; changed; {
		changed = false
		for s := int32(0); int(s) < c.n; s++ {
			if !in[s] || c.terminal(int(s)) {
				continue
			}
			ok := false
			for ci := c.choiceRow[s]; ci < c.choiceRow[s+1] && !ok; ci++ {
				all := true
				for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
					if !in[c.col[bi]] {
						all = false
						break
					}
				}
				ok = all
			}
			if !ok {
				in[s] = false
				changed = true
			}
		}
	}
	return in
}

// minProbOneOracle is MinProbOne on prob0EOracle.
func minProbOneOracle(m *MDP, target []bool) []bool {
	canFail := m.canReachAvoiding(prob0EOracle(m, target), target)
	out := make([]bool, m.NumStates)
	for s := range out {
		out[s] = target[s] || !canFail[s]
	}
	return out
}

// maxProbOneOracle is MaxProbOne as pass loops. U starts as every state.
// A round grows a set R from the target by full passes over the CSR,
// adding each state of U with a choice whose branches all stay in U and
// one of which is in R, until a pass adds nothing; R becomes the next U.
// The rounds stop when one changes nothing.
func maxProbOneOracle(m *MDP, target []bool) []bool {
	c := m.CSR()
	u := make([]bool, c.n)
	for s := range u {
		u[s] = true
	}
	for {
		r := slices.Clone(target)
		for changed := true; changed; {
			changed = false
			for s := int32(0); int(s) < c.n; s++ {
				for ci := c.choiceRow[s]; ci < c.choiceRow[s+1] && u[s] && !r[s]; ci++ {
					stays, hits := true, false
					for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
						stays = stays && u[c.col[bi]]
						hits = hits || r[c.col[bi]]
					}
					if stays && hits {
						r[s] = true
						changed = true
					}
				}
			}
		}
		if slices.Equal(r, u) {
			return r
		}
		u = r
	}
}

// tickOracle is the plain tick-bounded recursion on exact rationals: every
// state at every layer h = 0..horizon, each layer in a topological order
// of the zero-duration graph of its own (zeroDurationOrder). value[h][s]
// is the optimal (per goal) probability of reaching the target from s
// within h ticks, and choice[h][s] the index, local to s, of the first
// choice attaining it (-1 at a target or a state without choices). It
// shares no code with the production solve beyond the CSR's fields.
func tickOracle(m *MDP, target []bool, horizon int, goal Goal) (value [][]prob.Rat, choice [][]int, err error) {
	c := m.CSR()
	order, err := zeroDurationOrder(c)
	if err != nil {
		return nil, nil, err
	}
	for h := 0; h <= horizon; h++ {
		cur, pick := make([]prob.Rat, c.n), make([]int, c.n)
		for _, s := range order {
			cur[s], pick[s] = prob.Zero(), -1
			if target[s] {
				cur[s] = prob.One()
				continue
			}
			for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
				v := prob.Zero()
				tick := c.tick.get(ci)
				if !tick || h > 0 {
					succ := cur
					if tick {
						succ = value[h-1]
					}
					for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
						v = v.Add(c.probs.rat[c.pi[bi]].Mul(succ[c.col[bi]]))
					}
				}
				better := v.Less(cur[s])
				if goal == MaxProb {
					better = cur[s].Less(v)
				}
				if pick[s] < 0 || better {
					cur[s], pick[s] = v, int(ci-c.choiceRow[s])
				}
			}
		}
		value, choice = append(value, cur), append(choice, pick)
	}
	return value, choice, nil
}

// zeroDurationOrder lists every state after all of its zero-duration
// successors (a depth-first postorder), or fails with ErrZenoCycle.
func zeroDurationOrder(c *CSR) ([]int32, error) {
	const open, closed = 1, 2
	mark := make([]int8, c.n)
	order := make([]int32, 0, c.n)
	var visit func(s int32) error
	visit = func(s int32) error {
		switch mark[s] {
		case open:
			return ErrZenoCycle
		case closed:
			return nil
		}
		mark[s] = open
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			if c.tick.get(ci) {
				continue
			}
			for _, t := range c.col[c.branchRow[ci]:c.branchRow[ci+1]] {
				if err := visit(t); err != nil {
					return err
				}
			}
		}
		mark[s] = closed
		order = append(order, s)
		return nil
	}
	for s := range int32(c.n) {
		if err := visit(s); err != nil {
			return nil, err
		}
	}
	return order, nil
}
