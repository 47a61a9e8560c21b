// Package mdp provides a finite Markov-decision-process substrate for
// worst-case analysis of probabilistic automata.
//
// A time-bound statement U --t,p-->_Advs U' (Definition 3.1 of Lynch,
// Saias and Segala, PODC 1994) quantifies over every adversary of a
// schema. For the digitized adversary classes built by package sched, the
// quantification becomes an optimization over the strategies of a finite
// MDP: the adversary picks a choice in every state, probabilistic
// transitions resolve the algorithm's coins, and time advances on choices
// marked as ticks. This package explores such MDPs from probabilistic
// automata (Explore), numbering states in pa.Reachable's
// breadth-first order, and computes on them:
//
//   - exact minimum and maximum probabilities of reaching a target
//     within a tick horizon, as the worst case over a set of source
//     states — the quantities compared against the paper's p and t — by
//     one solve on that set's forward cone (fixed point when the
//     probabilities allow), kept as a strategy for a witness walk;
//   - qualitative reachability sets (probability 0 / probability 1 under
//     some or all adversaries), used by the Zuck–Pnueli-style baseline;
//   - minimum and maximum expected ticks to a target — the quantity
//     compared against the paper's expected-time bound of 63.
package mdp

import (
	"errors"
	"sync"
)

// MDP is a finite Markov decision process. States are dense indices
// 0..NumStates-1, and the transitions live in compressed-sparse-row
// form (CSR). Explore builds every MDP.
type MDP struct {
	NumStates int

	// Workers sets the parallelism of the sparse solvers: 0 means one
	// worker per available CPU. Any value produces bit-identical results;
	// the knob exists to bound scheduling overhead and for the
	// determinism tests.
	Workers int

	csr *CSR
}

// CSR returns the sparse transition structure of the MDP. The result is
// immutable and shared.
func (m *MDP) CSR() *CSR { return m.csr }

// ResolvedWorkers returns the number of workers the solvers use: Workers,
// or one per available CPU when Workers is 0.
func (m *MDP) ResolvedWorkers() int { return resolveWorkers(m.Workers) }

// Index maps the comparable states of a probabilistic automaton to dense
// MDP indices and back. The reverse map is built lazily on the first ID
// call: forward lookups (State, Where, Mask) are what the analyses use in
// bulk, and indexes over millions of states should not pay for a map
// nobody queries.
//
// When the automaton is a quotient (pa.Automaton.Orbit), each indexed
// state is an orbit's representative. Len and Orbit then count the
// states of the full automaton, which is what a printed count means;
// arrays indexed by state id have len(States()) entries.
type Index[S comparable] struct {
	states  []S
	orbit   []uint8 // orbit size of each state; nil when each is its own
	covered int     // the states of the full automaton
	idOnce  sync.Once
	id      map[S]int
}

// newIndex indexes states in the given order. With orbit set it records
// each state's orbit size and their sum.
func newIndex[S comparable](states []S, orbit func(S) int) *Index[S] {
	ix := &Index[S]{states: states, covered: len(states)}
	if orbit == nil {
		return ix
	}
	ix.orbit = make([]uint8, len(states))
	ix.covered = 0
	for i, s := range states {
		o := orbit(s)
		ix.orbit[i] = uint8(o)
		ix.covered += o
	}
	return ix
}

// Len returns the number of states the index covers: one per indexed
// state, or, on a quotient, the sum of their orbit sizes.
func (ix *Index[S]) Len() int { return ix.covered }

// Orbit returns how many states of the full automaton indexed state i
// stands for: 1 unless the automaton is a quotient.
func (ix *Index[S]) Orbit(i int) int {
	if ix.orbit == nil {
		return 1
	}
	return int(ix.orbit[i])
}

// States returns every indexed state in index order. The slice is the
// index's own, not a copy: callers must not modify it.
func (ix *Index[S]) States() []S { return ix.states }

// State returns the automaton state with index i.
func (ix *Index[S]) State(i int) S { return ix.states[i] }

// ID returns the index of state s, if present.
func (ix *Index[S]) ID(s S) (int, bool) {
	ix.idOnce.Do(func() {
		ix.id = make(map[S]int, len(ix.states))
		for i, st := range ix.states {
			ix.id[st] = i
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
