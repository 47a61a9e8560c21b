package mdp

import (
	"fmt"

	"repro/internal/prob"
)

// This file extracts worst-case witnesses from the per-horizon layers
// of the tick-bounded analysis — the machinery behind the "non-trivial
// lower bound on the time for progress" direction the paper lists as
// future work in Section 7: the curve of worst-case probabilities as a
// function of the horizon (ReachWithinTicksLayers) locates the exact
// threshold where a (t, p) claim starts to hold, and the witness shows
// the schedule that keeps it below.

// WitnessStep is one step of an extracted worst-case schedule.
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

// WorstWitness extracts a most-damning execution for the MinProb analysis:
// starting from `from` with the given tick budget, it follows, at every
// state, the adversary choice minimizing the reach probability and then
// the probabilistic branch with the smallest continuation value. The walk
// stops at the target, at budget exhaustion with no zero-duration move
// left, or after maxLen steps.
func (m *MDP) WorstWitness(target []bool, horizon int, from int, maxLen int) ([]WitnessStep, error) {
	layers, err := m.ReachWithinTicksLayers(target, horizon, MinProb)
	if err != nil {
		return nil, err
	}
	if from < 0 || from >= m.NumStates {
		return nil, fmt.Errorf("mdp: witness start %d out of range", from)
	}
	if maxLen <= 0 {
		maxLen = 4 * (horizon + 1)
	}
	c := m.CSR()

	var steps []WitnessStep
	s, h := int32(from), horizon
	for len(steps) < maxLen && !target[s] {
		cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
		if cLo == cHi {
			break
		}
		// Value of a choice under budget h.
		valueOf := func(ci int32) prob.Rat {
			tick := c.tick.get(ci)
			if tick && h == 0 {
				return prob.Zero()
			}
			layer := layers[h]
			if tick {
				layer = layers[h-1]
			}
			v := prob.Zero()
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				v = v.Add(c.pr[bi].Mul(layer[c.col[bi]]))
			}
			return v
		}
		bestCI := cLo
		bestV := valueOf(cLo)
		for ci := cLo + 1; ci < cHi; ci++ {
			if v := valueOf(ci); v.Less(bestV) {
				bestV, bestCI = v, ci
			}
		}
		tick := c.tick.get(bestCI)
		if tick && h == 0 {
			// The optimal adversary move is to let time expire.
			break
		}
		layer := layers[h]
		if tick {
			layer = layers[h-1]
		}
		// Most damning branch: the successor with the smallest value.
		bLo, bHi := c.branchRow[bestCI], c.branchRow[bestCI+1]
		best := bLo
		for bi := bLo + 1; bi < bHi; bi++ {
			if layer[c.col[bi]].Less(layer[c.col[best]]) {
				best = bi
			}
		}
		steps = append(steps, WitnessStep{
			State:      int(s),
			Choice:     int(bestCI - cLo),
			Action:     c.label(bestCI),
			Next:       int(c.col[best]),
			BranchProb: c.pr[best],
		})
		s = c.col[best]
		if tick {
			h--
		}
	}
	return steps, nil
}
