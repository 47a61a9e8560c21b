// Package core implements the proof method of Lynch, Saias and Segala,
// "Proving Time Bounds for Randomized Distributed Algorithms" (PODC 1994):
// time-bounded progress statements U --t,p--> U' (Definition 3.1), the
// union-weakening rule (Proposition 3.2), the composition theorem
// (Theorem 3.4) with its execution-closure side condition, derived
// relaxation rules, machine-checked proof trees, and the expected-time
// recurrence analysis of Section 6.2.
//
// Statements can be taken as premises (with provenance), derived from
// other statements by the paper's rules, and checked against a model: the
// digitized worst-case checker computes, by exact value iteration on the
// scheduler-product MDP, the minimum probability over all adversaries of
// reaching the target set within the time bound, from the worst reachable
// source state.
package core

import (
	"fmt"
	"strings"
)

// Set is a named set of states, given extensionally by a predicate. Names
// follow the paper's conventions ("T", "RT", "F∪G∪P", ...) and appear in
// statements and proof trees.
type Set[S comparable] struct {
	// Name renders the set in statements.
	Name string
	// Pred reports membership.
	Pred func(S) bool
}

// NewSet builds a named set.
func NewSet[S comparable](name string, pred func(S) bool) Set[S] {
	return Set[S]{Name: name, Pred: pred}
}

// Contains reports membership of s, treating a nil predicate as empty.
func (u Set[S]) Contains(s S) bool { return u.Pred != nil && u.Pred(s) }

// Union returns the union of the given sets, named "A∪B∪...".
func Union[S comparable](sets ...Set[S]) Set[S] {
	names := make([]string, len(sets))
	preds := make([]func(S) bool, len(sets))
	for i, set := range sets {
		names[i] = set.Name
		preds[i] = set.Pred
	}
	return Set[S]{
		Name: strings.Join(names, "∪"),
		Pred: func(s S) bool {
			for _, p := range preds {
				if p != nil && p(s) {
					return true
				}
			}
			return false
		},
	}
}

// Universe is an explicit finite collection of states over which set
// relations (subset, equality) are decided extensionally. The worst-case
// checker uses the reachable states of the model under analysis, matching
// the paper's convention that state sets are sets of reachable states.
type Universe[S comparable] struct {
	states []S
}

// NewUniverse builds a universe from a state list. The universe keeps
// the slice itself, not a copy (an analysis shares its mdp.Index's state
// list this way), so callers must not modify it afterwards.
func NewUniverse[S comparable](states []S) *Universe[S] {
	return &Universe[S]{states: states}
}

// Len returns the number of states in the universe.
func (u *Universe[S]) Len() int { return len(u.states) }

// Subset reports whether a ⊆ b over the universe.
func (u *Universe[S]) Subset(a, b Set[S]) bool {
	for _, s := range u.states {
		if a.Contains(s) && !b.Contains(s) {
			return false
		}
	}
	return true
}

// Equal reports whether a and b contain the same universe states.
func (u *Universe[S]) Equal(a, b Set[S]) bool {
	return u.Subset(a, b) && u.Subset(b, a)
}

// Count returns how many universe states are in the set.
func (u *Universe[S]) Count(a Set[S]) int {
	n := 0
	for _, s := range u.states {
		if a.Contains(s) {
			n++
		}
	}
	return n
}

// Witness returns a universe state in a but not in b, for diagnostics.
func (u *Universe[S]) Witness(a, b Set[S]) (S, bool) {
	for _, s := range u.states {
		if a.Contains(s) && !b.Contains(s) {
			return s, true
		}
	}
	var zero S
	return zero, false
}

// SchemaInfo carries the adversary-schema identity of a statement and the
// execution-closure property that Theorem 3.4 requires. Statements may be
// composed only when their schemas agree and are execution closed.
type SchemaInfo struct {
	// Name identifies the schema, e.g. "Unit-Time(k=1)".
	Name string
	// ExecutionClosed declares Definition 3.3 for the schema.
	ExecutionClosed bool
}

// String returns the schema name.
func (si SchemaInfo) String() string { return si.Name }

// UnitTimeSchema describes the digitized Unit-Time schema with the given
// steps-per-window bound. The schema is execution closed: the paper argues
// this for Unit-Time in Section 6.2 (knowing a longer past only reinforces
// the constraint that each ready process is scheduled within time 1), and
// the digitized version inherits the argument because all scheduling
// obligations are part of the product state.
func UnitTimeSchema(stepsPerWindow int) SchemaInfo {
	return SchemaInfo{
		Name:            fmt.Sprintf("Unit-Time(k=%d)", stepsPerWindow),
		ExecutionClosed: true,
	}
}
