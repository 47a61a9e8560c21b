package mdp

import "repro/internal/prob"

// This file keeps a tick-bounded solve as the adversary's optimal
// strategy, which a witness walks (dining.Analysis.WorstWitness): the
// schedule that keeps a (t, p) claim below p where the curve of
// worst-case probabilities (WorstWithinTicks) says it fails — the
// lower-bound direction the paper lists as future work in Section 7.

// Strategy is one tick-bounded solve kept layer by layer (WorstStrategy):
// the value of every state of the forward cone with every number of
// ticks left, which fixes the adversary's optimal move there. A state
// with h ticks left lies in the cone if it is within horizon−h ticks of
// the source set; outside it the solve computed nothing.
type Strategy struct {
	q      *tickQuery
	layers []layer // layer h: the values with h ticks left
	opt    Optimum
}

// Optimum returns the optimum over the source set at the horizon and the
// first state that attains it, as WorstAtHorizon does.
func (st *Strategy) Optimum() Optimum { return st.opt }

// Horizon returns the number of ticks the solve allowed.
func (st *Strategy) Horizon() int { return st.q.horizon }

// inCone reports whether state s with ticksLeft ticks left is in the cone.
func (st *Strategy) inCone(s, ticksLeft int) bool {
	return ticksLeft >= 0 && int(st.q.cone.dist[s]) <= st.q.horizon-ticksLeft
}

// Value returns the optimal probability of reaching the target from
// state s within ticksLeft ticks; false outside the cone.
func (st *Strategy) Value(s, ticksLeft int) (prob.Rat, bool) {
	if !st.inCone(s, ticksLeft) {
		return prob.Rat{}, false
	}
	return st.layers[ticksLeft].value(int32(s)), true
}

// Choice returns the strategy's move at state s with ticksLeft ticks
// left: the index, local to s, of the first choice whose value is optimal
// (per goal). It is -1 at a target, at a state without choices and
// outside the cone.
func (st *Strategy) Choice(s, ticksLeft int) int {
	c := st.q.c
	if !st.inCone(s, ticksLeft) || st.q.target[s] || c.terminal(s) {
		return -1
	}
	lo, hi := c.choiceRow[s], c.choiceRow[s+1]
	at, best := lo, st.choiceValue(lo, ticksLeft)
	for ci := lo + 1; ci < hi; ci++ {
		if v := st.choiceValue(ci, ticksLeft); st.q.goal.better(v, best) {
			at, best = ci, v
		}
	}
	return int(at - lo)
}

// next returns the layer that choice ci, taken with ticksLeft ticks left,
// reads its successors from and the ticks left after it; false for a
// tick with no tick left, which meets the bound with probability zero.
func (st *Strategy) next(ci int32, ticksLeft int) (layer, int, bool) {
	if st.q.c.tick.get(ci) {
		if ticksLeft == 0 {
			return layer{}, 0, false
		}
		ticksLeft--
	}
	return st.layers[ticksLeft], ticksLeft, true
}

// choiceValue is the value of choice ci with ticksLeft ticks left: the
// expectation of its successors' values.
func (st *Strategy) choiceValue(ci int32, ticksLeft int) prob.Rat {
	c := st.q.c
	v := prob.Zero()
	if l, _, ok := st.next(ci, ticksLeft); ok {
		for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
			v = v.Add(c.ratAt(bi).Mul(l.value(c.col[bi])))
		}
	}
	return v
}
