// Package mdp provides a finite Markov-decision-process substrate for
// worst-case analysis of probabilistic automata.
//
// A time-bound statement U --t,p-->_Advs U' (Definition 3.1 of Lynch,
// Saias and Segala, PODC 1994) quantifies over every adversary of a
// schema. For the digitized adversary classes built by package sched, the
// quantification becomes an optimization over the strategies of a finite
// MDP: the adversary picks a choice in every state, probabilistic
// transitions resolve the algorithm's coins, and time advances on choices
// marked as ticks. This package enumerates such MDPs from probabilistic
// automata and computes:
//
//   - exact minimum and maximum probabilities of reaching a target
//     within a tick horizon (on 62-bit fixed point when the probabilities
//     allow, else on rationals) — the quantities compared against the
//     paper's p and t;
//   - qualitative reachability sets (probability 0 / probability 1 under
//     some or all adversaries), used by the liveness baseline;
//   - maximum expected ticks to a target — the quantity compared against
//     the paper's expected-time bound of 63;
//   - maximal end components and strongly connected components.
package mdp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/pa"
	"repro/internal/prob"
)

// Tr is one probabilistic branch of a choice.
type Tr struct {
	// To is the index of the successor state.
	To int
	// P is the branch probability; the branches of a choice sum to one.
	P prob.Rat
}

// Choice is one nondeterministic alternative available to the adversary in
// a state.
type Choice struct {
	// Label names the choice for diagnostics and strategy extraction.
	Label string
	// Tick reports whether taking the choice advances time by one unit.
	Tick bool
	// Branches is the probability distribution over successors.
	Branches []Tr
}

// MDP is a finite Markov decision process. States are dense indices
// 0..NumStates-1; Choices[s] lists the alternatives in state s (possibly
// none, making s terminal).
//
// Choices is the construction API for hand-built and densely enumerated
// MDPs; every analysis actually runs on the compressed-sparse-row form
// returned by CSR, which is converted lazily from Choices on first use.
// MDPs produced by the on-the-fly explorer (Explore) carry only the CSR
// form and leave Choices nil; all analyses behave identically on either.
type MDP struct {
	NumStates int
	Choices   [][]Choice

	// Workers sets the parallelism of the sparse solvers: 0 means one
	// worker per available CPU. Any value produces bit-identical results;
	// the knob exists to bound scheduling overhead and for the
	// determinism tests.
	Workers int

	csrOnce sync.Once
	csr     *CSR
}

// CSR returns the sparse transition structure of the MDP, converting the
// Choices form on first call. The result is immutable and shared; callers
// must not modify Choices after the first analysis. On a hand-built MDP
// that fails Validate, CSR or the analyses built on it may panic: a
// branch target out of range panics in the first solve, and more
// distinct branch probabilities than the CSR can index
// (ErrTooManyProbabilities) panics here.
func (m *MDP) CSR() *CSR {
	m.csrOnce.Do(func() {
		if m.csr == nil {
			csr, err := csrFromChoices(m.NumStates, m.Choices)
			if err != nil {
				panic(err)
			}
			m.csr = csr
		}
	})
	return m.csr
}

// workers resolves the Workers field to a concrete worker count.
func (m *MDP) workers() int { return resolveWorkers(m.Workers) }

// Validate checks structural invariants: branch targets in range, branch
// probabilities summing to one per choice, and at most 256 distinct
// branch probabilities across the MDP (ErrTooManyProbabilities).
func (m *MDP) Validate() error {
	if m.Choices == nil && m.csr != nil {
		if m.NumStates != m.csr.n {
			return fmt.Errorf("mdp: NumStates %d != CSR states %d", m.NumStates, m.csr.n)
		}
		return m.csr.validate()
	}
	if m.NumStates != len(m.Choices) {
		return fmt.Errorf("mdp: NumStates %d != len(Choices) %d", m.NumStates, len(m.Choices))
	}
	var probs probTable
	for s, choices := range m.Choices {
		for ci, c := range choices {
			total := prob.Zero()
			for _, tr := range c.Branches {
				if tr.To < 0 || tr.To >= m.NumStates {
					return fmt.Errorf("mdp: state %d choice %d targets out-of-range state %d", s, ci, tr.To)
				}
				if tr.P.Sign() <= 0 {
					return fmt.Errorf("mdp: state %d choice %d has non-positive branch probability %v", s, ci, tr.P)
				}
				if _, ok := probs.index(tr.P); !ok {
					return fmt.Errorf("%w: state %d choice %d adds %v", ErrTooManyProbabilities, s, ci, tr.P)
				}
				total = total.Add(tr.P)
			}
			if !total.IsOne() {
				return fmt.Errorf("mdp: state %d choice %d branches sum to %v", s, ci, total)
			}
		}
	}
	return nil
}

// Terminal reports whether state s has no choices.
func (m *MDP) Terminal(s int) bool {
	if m.Choices == nil && m.csr != nil {
		return m.csr.terminal(s)
	}
	return len(m.Choices[s]) == 0
}

// Index maps the comparable states of a probabilistic automaton to dense
// MDP indices and back. The reverse map is built lazily on the first ID
// call: forward lookups (State, Where, Mask) are what the analyses use in
// bulk, and explorer-built indexes over millions of states should not pay
// for a map nobody queries.
type Index[S comparable] struct {
	states []S
	idOnce sync.Once
	id     map[S]int
}

// Len returns the number of indexed states.
func (ix *Index[S]) Len() int { return len(ix.states) }

// States returns every indexed state in index order. The slice is the
// index's own, not a copy: callers must not modify it.
func (ix *Index[S]) States() []S { return ix.states }

// State returns the automaton state with index i.
func (ix *Index[S]) State(i int) S { return ix.states[i] }

// ID returns the index of state s, if present.
func (ix *Index[S]) ID(s S) (int, bool) {
	ix.idOnce.Do(func() {
		if ix.id == nil {
			ix.id = make(map[S]int, len(ix.states))
			for i, st := range ix.states {
				ix.id[st] = i
			}
		}
	})
	i, ok := ix.id[s]
	return i, ok
}

// Where returns the indices of all states satisfying pred, in index order.
func (ix *Index[S]) Where(pred func(S) bool) []int {
	var out []int
	for i, s := range ix.states {
		if pred(s) {
			out = append(out, i)
		}
	}
	return out
}

// Mask returns the boolean mask of states satisfying pred.
func (ix *Index[S]) Mask(pred func(S) bool) []bool {
	mask := make([]bool, len(ix.states))
	for i, s := range ix.states {
		mask[i] = pred(s)
	}
	return mask
}

// ErrBadDuration is returned when an automaton uses action durations other
// than zero and one; the tick-based MDP analyses require unit time steps.
var ErrBadDuration = errors.New("mdp: action duration must be 0 or 1")

// FromAutomaton enumerates the reachable states of m (with pa.Reachable
// semantics and the given limit) and converts its transition structure to
// an MDP. Actions of duration one become tick choices; duration zero,
// ordinary choices; any other duration is rejected. The CSR form is built
// up front, so a model with more distinct branch probabilities than the
// CSR can index fails here with ErrTooManyProbabilities.
func FromAutomaton[S comparable](m *pa.Automaton[S], limit int) (*MDP, *Index[S], error) {
	states, err := m.Reachable(limit)
	if err != nil {
		return nil, nil, err
	}
	ix := &Index[S]{states: states, id: make(map[S]int, len(states))}
	for i, s := range states {
		ix.id[s] = i
	}

	mm := &MDP{NumStates: len(states), Choices: make([][]Choice, len(states))}
	for i, s := range states {
		steps := m.Steps(s)
		if len(steps) == 0 {
			continue
		}
		choices := make([]Choice, 0, len(steps))
		for _, step := range steps {
			d := m.DurationOf(step.Action)
			var tick bool
			switch {
			case d.IsZero():
				tick = false
			case d.IsOne():
				tick = true
			default:
				return nil, nil, fmt.Errorf("%w: action %q has duration %v", ErrBadDuration, step.Action, d)
			}
			outs := step.Next.Outcomes()
			branches := make([]Tr, 0, len(outs))
			for _, o := range outs {
				j, ok := ix.id[o.Value]
				if !ok {
					return nil, nil, fmt.Errorf("mdp: successor of %v via %q not enumerated", s, step.Action)
				}
				branches = append(branches, Tr{To: j, P: o.Prob})
			}
			choices = append(choices, Choice{Label: step.Action, Tick: tick, Branches: branches})
		}
		mm.Choices[i] = choices
	}
	csr, err := csrFromChoices(mm.NumStates, mm.Choices)
	if err != nil {
		return nil, nil, err
	}
	mm.csr = csr
	return mm, ix, nil
}
