// Package pa implements the simplified probabilistic automaton model of
// Section 2 of Lynch, Saias and Segala, "Proving Time Bounds for Randomized
// Distributed Algorithms" (PODC 1994).
//
// A probabilistic automaton (Definition 2.1) is a state machine whose
// labeled transitions lead to probability distributions over states, with
// nondeterministic choice between the transitions enabled in a state. The
// nondeterminism is later resolved by an adversary (package adversary),
// yielding an execution automaton (package exec) on which probabilities of
// events are measured.
//
// Time is handled by the paper's "patient construction": an automaton may
// designate time-passage actions; the framework tracks the accumulated
// duration of an execution fragment. Models built for the digitized
// worst-case checker use a single unit-duration action (conventionally
// named "tick").
package pa

import (
	"errors"
	"fmt"

	"repro/internal/prob"
)

// ErrLimitExceeded is returned by exploration helpers when the requested
// state or depth budget is exhausted before the computation completes.
var ErrLimitExceeded = errors.New("pa: exploration limit exceeded")

// Step is one element of the transition relation steps(M): from a source
// state (implicit), performing Action leads to the probability distribution
// Next over successor states.
type Step[S comparable] struct {
	// Action labels the step. External versus internal classification
	// lives in the automaton's Signature.
	Action string
	// Next is the distribution over successor states; it must be a valid
	// probability distribution.
	Next prob.Dist[S]
}

// Signature is the action signature sig(M) = (ext(M), int(M)). Actions not
// listed are treated as internal; the split matters only for interface
// documentation and trace rendering, not for the probability calculus.
type Signature struct {
	External map[string]bool
	Internal map[string]bool
}

// NewSignature builds a Signature from the two action lists.
func NewSignature(external, internal []string) Signature {
	sig := Signature{
		External: make(map[string]bool, len(external)),
		Internal: make(map[string]bool, len(internal)),
	}
	for _, a := range external {
		sig.External[a] = true
	}
	for _, a := range internal {
		sig.Internal[a] = true
	}
	return sig
}

// IsExternal reports whether action a is declared external.
func (sig Signature) IsExternal(a string) bool { return sig.External[a] }

// Automaton is a probabilistic automaton (Definition 2.1). The state space
// is given intensionally by the Steps function so that models with large
// or unbounded state spaces can be explored lazily.
type Automaton[S comparable] struct {
	// Name identifies the automaton in diagnostics and proof trees.
	Name string
	// Start is the nonempty set of start states.
	Start []S
	// Sig is the action signature.
	Sig Signature
	// Steps enumerates the transitions enabled in a state, in a
	// deterministic order. An empty result means no step is enabled.
	Steps func(S) []Step[S]
	// Duration gives the time advanced by an action, implementing the
	// patient construction. A nil Duration means every action is
	// instantaneous.
	Duration func(action string) prob.Rat
}

// Validate checks the structural well-formedness of the automaton
// definition itself: a nonempty start set, a Steps function, and valid
// distributions on the steps enabled in the start states. Deeper
// validation over the reachable space is available via CheckReachable.
func (m *Automaton[S]) Validate() error {
	if len(m.Start) == 0 {
		return errors.New("pa: automaton has no start states")
	}
	if m.Steps == nil {
		return errors.New("pa: automaton has no Steps function")
	}
	for _, s := range m.Start {
		for _, step := range m.Steps(s) {
			if !step.Next.IsValid() {
				return fmt.Errorf("pa: step %q from start state %v has invalid distribution", step.Action, s)
			}
		}
	}
	return nil
}

// DurationOf returns the time advanced by action a, which is zero unless
// the automaton declares otherwise.
func (m *Automaton[S]) DurationOf(a string) prob.Rat {
	if m.Duration == nil {
		return prob.Zero()
	}
	return m.Duration(a)
}

// EnabledFrom reports whether any step is enabled in state s.
func (m *Automaton[S]) EnabledFrom(s S) bool { return len(m.Steps(s)) > 0 }

// Reachable explores the state space breadth-first from the start states
// and returns every reachable state (rstates(M)), in discovery order. It
// returns ErrLimitExceeded if more than limit states are discovered, the
// distinct start states included; limit <= 0 means no limit.
func (m *Automaton[S]) Reachable(limit int) ([]S, error) {
	seen := make(map[S]bool, len(m.Start))
	var order []S
	queue := make([]S, 0, len(m.Start))
	for _, s := range m.Start {
		if !seen[s] {
			if limit > 0 && len(order) >= limit {
				return order, fmt.Errorf("%w: more than %d states", ErrLimitExceeded, limit)
			}
			seen[s] = true
			order = append(order, s)
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, step := range m.Steps(s) {
			for _, succ := range step.Next.Support() {
				if seen[succ] {
					continue
				}
				if limit > 0 && len(order) >= limit {
					return order, fmt.Errorf("%w: more than %d states", ErrLimitExceeded, limit)
				}
				seen[succ] = true
				order = append(order, succ)
				queue = append(queue, succ)
			}
		}
	}
	return order, nil
}

// CheckReachable validates every step distribution over the reachable
// space, with the same limit convention as Reachable.
func (m *Automaton[S]) CheckReachable(limit int) error {
	states, err := m.Reachable(limit)
	if err != nil {
		return err
	}
	for _, s := range states {
		for _, step := range m.Steps(s) {
			if !step.Next.IsValid() {
				return fmt.Errorf("pa: step %q from state %v has invalid distribution", step.Action, s)
			}
		}
	}
	return nil
}

// IsFullyProbabilistic reports whether the automaton has a unique start
// state and at most one step enabled in every reachable state (the paper's
// "fully probabilistic" condition, satisfied by execution automata). The
// reachable space is explored with the given limit.
func (m *Automaton[S]) IsFullyProbabilistic(limit int) (bool, error) {
	if len(m.Start) != 1 {
		return false, nil
	}
	states, err := m.Reachable(limit)
	if err != nil {
		return false, err
	}
	for _, s := range states {
		if len(m.Steps(s)) > 1 {
			return false, nil
		}
	}
	return true, nil
}
