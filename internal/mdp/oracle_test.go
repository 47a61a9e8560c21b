package mdp

// The test oracle for the explorer. ExplorePacked is the only production
// builder; fromAutomaton is an independent dense one, so the identity
// tests (identity_test.go) and FuzzExploreMatchesDense can pin the
// explorer's state numbering and arrays against it: it numbers states by
// calling pa.Reachable, then fills the CSR state by state from that
// list. This file also holds the per-state choice form that hand-built
// test MDPs are written in.

import (
	"fmt"

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
	return &MDP{NumStates: len(states), csr: b.finish()}, &Index[S]{states: states}, nil
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
