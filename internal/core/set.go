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
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Set is a named set of states, given extensionally by a predicate. Names
// follow the paper's conventions ("T", "RT", "F∪G∪P", ...) and appear in
// statements and proof trees.
//
// A set built by NewSet or Union memoizes its extent: the bitset of its
// members among the state list it was last evaluated on (a Universe's,
// or an mdp.Index's, which an analysis shares with its Universe). The
// side conditions of a proof and the masks of its checks then evaluate
// each predicate once per state, however many rules and statements
// mention the set, and a union ORs its operands' extents. A set built as
// a struct literal has no memo and calls Pred on every query.
type Set[S comparable] struct {
	// Name renders the set in statements.
	Name string
	// Pred reports membership.
	Pred func(S) bool

	memo *extentMemo[S]
}

// NewSet builds a named set.
func NewSet[S comparable](name string, pred func(S) bool) Set[S] {
	u := Set[S]{Name: name, Pred: pred}
	u.memo = &extentMemo[S]{compute: u.evaluate}
	return u
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
	parts := append([]Set[S](nil), sets...)
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
		memo: &extentMemo[S]{compute: func(states []S) bitset {
			ext := newBitset(len(states))
			for _, p := range parts {
				ext.or(p.extent(states))
			}
			return ext
		}},
	}
}

// Mask returns the set's membership over states, one bool per state:
// mask[i] reports whether states[i] is in the set. The slice is the
// caller's own.
func (u Set[S]) Mask(states []S) []bool { return u.extent(states).bools(len(states)) }

// extent returns the set's members among states as a bitset, from the
// memo when it was computed on this very state list. The result is
// shared and must not be modified.
func (u Set[S]) extent(states []S) bitset {
	m := u.memo
	if m == nil {
		return u.evaluate(states)
	}
	if e := m.cur.Load(); e.on(states) {
		return e.bits
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.cur.Load(); e.on(states) {
		return e.bits
	}
	ext := m.compute(states)
	m.cur.Store(&extent[S]{first: unsafe.SliceData(states), n: len(states), bits: ext})
	return ext
}

// evaluate calls Pred on every state.
func (u Set[S]) evaluate(states []S) bitset {
	ext := newBitset(len(states))
	if u.Pred != nil {
		for i, s := range states {
			if u.Pred(s) {
				ext.set(i)
			}
		}
	}
	return ext
}

// extentMemo is a set's memoized extent. compute evaluates it on a state
// list; cur is the last one computed, published once complete, so a
// reader needs no lock, and mu makes concurrent first uses compute it
// once.
type extentMemo[S comparable] struct {
	compute func(states []S) bitset
	mu      sync.Mutex
	cur     atomic.Pointer[extent[S]]
}

// extent is a set's members among one state list, which it names by its
// first element and its length.
type extent[S comparable] struct {
	first *S
	n     int
	bits  bitset
}

// on reports whether e was computed on states.
func (e *extent[S]) on(states []S) bool {
	return e != nil && e.n == len(states) && e.first == unsafe.SliceData(states)
}

// bitset is a packed membership vector over a state list.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// bools returns the first n bits as a fresh []bool.
func (b bitset) bools(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = b.has(i)
	}
	return out
}

func (b bitset) or(o bitset) {
	for w := range b {
		b[w] |= o[w]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// firstAndNot returns the least index in b but not in o, or -1.
func (b bitset) firstAndNot(o bitset) int {
	for w := range b {
		if d := b[w] &^ o[w]; d != 0 {
			return w<<6 + bits.TrailingZeros64(d)
		}
	}
	return -1
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
	return a.extent(u.states).firstAndNot(b.extent(u.states)) < 0
}

// Equal reports whether a and b contain the same universe states.
func (u *Universe[S]) Equal(a, b Set[S]) bool {
	return slices.Equal(a.extent(u.states), b.extent(u.states))
}

// Count returns how many universe states are in the set.
func (u *Universe[S]) Count(a Set[S]) int { return a.extent(u.states).count() }

// Witness returns the first universe state in a but not in b, for
// diagnostics.
func (u *Universe[S]) Witness(a, b Set[S]) (S, bool) {
	if i := a.extent(u.states).firstAndNot(b.extent(u.states)); i >= 0 {
		return u.states[i], true
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
