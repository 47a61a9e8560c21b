// Package timedpa is the public facade of a full Go reproduction of
//
//	N. Lynch, I. Saias, R. Segala,
//	"Proving Time Bounds for Randomized Distributed Algorithms",
//	PODC 1994.
//
// The paper develops a method for proving upper bounds on the running time
// of randomized distributed algorithms under adversarial scheduling:
// time-bounded progress statements U --t,p--> U' ("from any state of U,
// under any adversary of a schema, a state of U' is reached within time t
// with probability at least p"), a composition theorem for chaining them,
// independence rules for reasoning about separate coin flips against
// adaptive adversaries, and, as the flagship application, a proof that the
// Lehmann–Rabin randomized Dining Philosophers algorithm makes progress
// within time 13 with probability 1/8 — hence within expected time 63 —
// against every adversary that schedules each ready process at least once
// per time unit.
//
// This module reproduces all of it, executable:
//
//   - the probabilistic automaton model (prob, pa), adversaries and
//     schemas (adversary), execution automata with their rectangle measure
//     (exec), and the event schemas first/next with the Proposition 4.2
//     independence bounds (events);
//   - the proof calculus (core): statements, Proposition 3.2 weakening,
//     Theorem 3.4 composition with its execution-closure side condition,
//     machine-checked proof trees, a statement parser and a proof-script
//     interpreter, and the Section 6.2 expected-time recurrence;
//   - a worst-case model checker: the Unit-Time adversary schema is
//     digitized (sched) into a finite scheduler-product MDP (mdp) on which
//     exact rational value iteration computes the true worst-case
//     probability of every claimed arrow;
//   - the Lehmann–Rabin algorithm itself (dining) with the paper's five
//     arrows checked and composed into T --13,1/8--> C, plus a dense-time
//     Monte Carlo engine (sim) with programmable malicious schedulers;
//   - a second case study (election) and, for contrast, the qualitative
//     Zuck–Pnueli-style baseline: almost-sure progress with no time bound
//     (dining.Analysis.QualitativeProgress, on mdp.MinProbOne).
//
// The type aliases and constructors below re-export the stable API so that
// examples, commands and downstream users have a single import; the
// internal packages remain the implementation.
package timedpa

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Exact rational arithmetic (package prob).
type (
	// Rat is an immutable arbitrary-precision rational.
	Rat = prob.Rat
	// Dist is a finite probability distribution.
	Dist[T comparable] = prob.Dist[T]
	// Outcome pairs a value with its probability.
	Outcome[T comparable] = prob.Outcome[T]
)

// Re-exported rational constructors.
var (
	NewRat       = prob.NewRat
	ParseRat     = prob.ParseRat
	MustParseRat = prob.MustParseRat
	Zero         = prob.Zero
	One          = prob.One
	Half         = prob.Half
)

// The probabilistic automaton model (package pa).
type (
	// Automaton is a probabilistic automaton (Definition 2.1).
	Automaton[S comparable] = pa.Automaton[S]
	// Step is one labeled probabilistic transition.
	Step[S comparable] = pa.Step[S]
	// Fragment is a finite execution fragment.
	Fragment[S comparable] = pa.Fragment[S]
)

// Adversaries and schemas (package adversary).
type (
	// Adversary resolves nondeterminism (Definition 2.2).
	Adversary[S comparable] = adversary.Adversary[S]
	// AdversarySchema is a set of adversaries (Definition 2.6).
	AdversarySchema[S comparable] = adversary.Schema[S]
)

// Execution automata and events (packages exec, events).
type (
	// ExecutionAutomaton is H(M, A, alpha) (Definitions 2.3–2.4).
	ExecutionAutomaton[S comparable] = exec.Automaton[S]
	// Monitor classifies executions incrementally (event schemas,
	// Definition 2.5).
	Monitor[S comparable] = exec.Monitor[S]
	// Interval brackets an event probability.
	Interval = exec.Interval
	// Hypothesis is one (action, set, bound) triple of Proposition 4.2.
	Hypothesis[S comparable] = events.Hypothesis[S]
)

// The proof calculus (package core).
type (
	// StateSet is a named set of states.
	StateSet[S comparable] = core.Set[S]
	// Statement is a time-bounded progress statement U --t,p--> U'.
	Statement[S comparable] = core.Statement[S]
	// Proof is a machine-checked derivation tree.
	Proof[S comparable] = core.Proof[S]
	// Universe decides set relations extensionally.
	Universe[S comparable] = core.Universe[S]
	// SchemaInfo names an adversary schema and its execution closure.
	SchemaInfo = core.SchemaInfo
	// RetryLoop is the Section 6.2 expected-time analysis.
	RetryLoop = core.RetryLoop
	// Phase is one phase of a retry loop.
	Phase = core.Phase
	// CheckResult reports a worst-case model check of a statement.
	CheckResult[S comparable] = core.CheckResult[S]
)

// The worst-case checking pipeline (packages sched, mdp).
type (
	// SchedulerModel is a multi-process algorithm to be closed under the
	// digitized Unit-Time adversaries.
	SchedulerModel[S comparable] = sched.Model[S]
	// ProductState augments an algorithm state with window bookkeeping.
	ProductState[S comparable] = sched.State[S]
	// MDP is the finite decision-process form of a product automaton.
	MDP = mdp.MDP
	// ExploreOptions bounds an enumeration: its state limit, worker count
	// and memory budget (DiningAnalysis.Unreduced).
	ExploreOptions = mdp.ExploreOptions
)

// Case studies.
type (
	// DiningAnalysis is the enumerated Lehmann–Rabin instance.
	DiningAnalysis = dining.Analysis
	// ElectionAnalysis is the enumerated leader-election instance.
	ElectionAnalysis = election.Analysis
	// SimPolicy is a dense-time Unit-Time adversary for simulation.
	SimPolicy[S comparable] = sim.Policy[S]
)

// NewDiningAnalysis enumerates the n-process Lehmann–Rabin ring under the
// k-steps-per-window digitized Unit-Time schema, as the product's
// quotient by the ring's rotations and reflections (limit caps the
// enumerated representatives; 0 means unlimited). Its MDP and Index
// answer only for sets that every rotation and reflection maps onto
// themselves, as the registry's sets (Set, Sets) are: a set that names
// a process, say "process 0 is critical", needs the full product, which
// the analysis's Unreduced method explores.
func NewDiningAnalysis(n, k, limit int) (*DiningAnalysis, error) {
	return dining.NewAnalysisOpts(n, k, dining.Opts{Limit: limit})
}

// NewElectionAnalysis enumerates the n-process leader-election protocol.
func NewElectionAnalysis(n, k, limit int) (*ElectionAnalysis, error) {
	return election.NewAnalysisOpts(n, k, election.Opts{Limit: limit})
}

// UnitTimeSchema names the digitized Unit-Time schema for statements.
func UnitTimeSchema(stepsPerWindow int) SchemaInfo {
	return core.UnitTimeSchema(stepsPerWindow)
}

// Premise, Weaken, Compose and friends re-export the inference rules.
var (
	// ErrNotChained et al. are returned by the rules on violated side
	// conditions; see package core.
	ErrNotChained = core.ErrNotChained
)

// ReachEvent is the event schema e_{U',t} of Definition 3.1: a state
// satisfying pred is reached within the deadline.
func ReachEvent[S comparable](pred func(S) bool, deadline Rat) Monitor[S] {
	return events.Reach(pred, deadline)
}

// FirstEvent is the event schema first(a, U) of Section 4.
func FirstEvent[S comparable](action string, pred func(S) bool) Monitor[S] {
	return events.First(action, pred)
}

// EventPair names one (action, state set) component of a next schema.
type EventPair[S comparable] = events.Pair[S]

// NextEvent is the event schema next((a1,U1),...,(an,Un)) of Section 4;
// the actions must be distinct.
func NextEvent[S comparable](pairs ...EventPair[S]) (Monitor[S], error) {
	return events.Next(pairs...)
}

// FirstEnabledAdversary is the memoryless adversary always choosing the
// first enabled step.
func FirstEnabledAdversary[S comparable](m *Automaton[S]) Adversary[S] {
	return adversary.FirstEnabled(m)
}

// AndEvents intersects event schemas; OrEvents unites them; NotEvent
// complements one.
func AndEvents[S comparable](ms ...Monitor[S]) Monitor[S] { return events.And(ms...) }

// OrEvents returns the union event.
func OrEvents[S comparable](ms ...Monitor[S]) Monitor[S] { return events.Or(ms...) }

// NotEvent returns the complement event.
func NotEvent[S comparable](m Monitor[S]) Monitor[S] { return events.Not(m) }

// EventProb computes the exact probability of an event under a specific
// adversary, from the given start state (the paper's P_H[e(H)]).
func EventProb[S comparable](m *Automaton[S], a Adversary[S], start S, mon Monitor[S], maxDepth int) (Interval, error) {
	h := exec.FromState(m, a, start)
	return h.Prob(mon, exec.EvalConfig{MaxDepth: maxDepth})
}

// NewDist builds a distribution from explicit outcomes.
func NewDist[T comparable](outcomes ...Outcome[T]) (Dist[T], error) {
	return prob.NewDist(outcomes...)
}

// MustDist is like NewDist but panics on invalid input.
func MustDist[T comparable](outcomes ...Outcome[T]) Dist[T] {
	return prob.MustDist(outcomes...)
}

// PointDist returns the Dirac distribution on v.
func PointDist[T comparable](v T) Dist[T] { return prob.Point(v) }

// UniformDist returns the uniform distribution over distinct values.
func UniformDist[T comparable](values ...T) (Dist[T], error) {
	return prob.Uniform(values...)
}

// NewStateSet builds a named state set.
func NewStateSet[S comparable](name string, pred func(S) bool) StateSet[S] {
	return core.NewSet(name, pred)
}

// UnionSets returns the union of state sets.
func UnionSets[S comparable](sets ...StateSet[S]) StateSet[S] {
	return core.Union(sets...)
}

// NewUniverse builds a universe from a state list. The universe keeps
// the slice itself, not a copy, so callers must not modify it afterwards.
func NewUniverse[S comparable](states []S) *Universe[S] {
	return core.NewUniverse(states)
}

// Premise wraps a statement as a derivation leaf.
func Premise[S comparable](st Statement[S], note string) (*Proof[S], error) {
	return core.Premise(st, note)
}

// Weaken applies Proposition 3.2.
func Weaken[S comparable](p *Proof[S], extra StateSet[S]) (*Proof[S], error) {
	return core.Weaken(p, extra)
}

// Compose applies Theorem 3.4.
func Compose[S comparable](u *Universe[S], p1, p2 *Proof[S]) (*Proof[S], error) {
	return core.Compose(u, p1, p2)
}

// ComposeChain folds Compose left to right.
func ComposeChain[S comparable](u *Universe[S], ps ...*Proof[S]) (*Proof[S], error) {
	return core.ComposeChain(u, ps...)
}

// BuildProduct closes a multi-process model under the digitized Unit-Time
// adversaries, returning the product automaton. It is never a quotient:
// every product state is its own, on the dining ring too, so any state
// set can be checked on its enumeration.
func BuildProduct[S comparable](m SchedulerModel[S], stepsPerWindow int) (*Automaton[ProductState[S]], error) {
	return sched.Product(sched.Unreduced(m), sched.Config{StepsPerWindow: stepsPerWindow})
}

// EnumerateMDP converts an automaton into an indexed finite MDP, numbering
// states in Reachable's breadth-first order (limit caps the states; 0
// means unlimited). It explores on one goroutine, so m's Steps need not
// be safe for concurrent use; core.CheckAll then solves one statement at
// a time too, unless the caller sets the returned MDP's Workers.
func EnumerateMDP[S comparable](m *Automaton[S], limit int) (*MDP, *mdp.Index[S], error) {
	return mdp.Explore(m, mdp.ExploreOptions{Workers: 1, Limit: limit})
}

// CheckStatement computes the exact worst-case probability of a statement
// over an enumerated model and compares it with the claimed bound.
func CheckStatement[S comparable](m *MDP, ix *mdp.Index[S], st Statement[S]) (CheckResult[S], error) {
	return core.CheckStatement(m, ix, st)
}
