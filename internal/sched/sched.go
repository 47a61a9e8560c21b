// Package sched digitizes the Unit-Time adversary schema of Section 6.2 of
// Lynch, Saias and Segala (PODC 1994).
//
// The paper's schema contains every adversary that (1) lets time diverge
// and (2) schedules every ready process within time 1 of it being ready.
// For mechanized worst-case analysis, this package quantizes time into
// unit windows separated by "tick" actions and builds a product automaton
// whose remaining nondeterminism is exactly the adversary's:
//
//   - step(i): process i performs one of its enabled algorithm moves. A
//     process may take at most StepsPerWindow such moves per window
//     (arbitrary speed is recovered as StepsPerWindow grows).
//   - a user move (try/exit in Lehmann–Rabin): always available to the
//     adversary and exempt from the unit-time obligation, matching the
//     paper's treatment of try_i and exit_i as user-controlled.
//   - tick: ends the window, allowed only when every process that owed a
//     step (ready at the start of the window) has taken one.
//
// A process that becomes ready mid-window owes its step only from the
// next window boundary, so a ready process runs at most one full window —
// time at most 1 — without stepping, exactly the dense-time constraint.
// Minimizing reach probability over the strategies of the product MDP
// (package mdp) is then the digitized analogue of taking the infimum over
// the Unit-Time schema. The schema is execution-closed in the sense of
// Definition 3.3: membership constrains only the future scheduling
// pattern, never the identity of the past, and the product state carries
// all obligation bookkeeping, so suffix adversaries remain members.
package sched

import (
	"fmt"
	"strconv"

	"repro/internal/pa"
	"repro/internal/prob"
)

// MaxProcs is the largest number of processes a product can track; the
// per-window budgets are packed four bits per process into one word.
const MaxProcs = 16

// MaxStepsPerWindow is the largest per-window speed bound.
const MaxStepsPerWindow = 15

// TickAction labels the time-passage action of the product automaton; it
// is the only action with nonzero (unit) duration.
const TickAction = "tick"

// Model describes a multi-process randomized algorithm to be scheduled.
// Implementations must be purely functional: Moves and UserMoves must not
// retain or mutate state values.
type Model[S comparable] interface {
	// Name identifies the algorithm.
	Name() string
	// NumProcs returns the number of processes.
	NumProcs() int
	// Start returns the start states.
	Start() []S
	// Moves returns the algorithm steps process i can perform from s. An
	// empty result means the process is not ready (it enables no action
	// subject to the unit-time constraint).
	Moves(s S, i int) []pa.Step[S]
	// UserMoves returns the steps of process i controlled by the user
	// (e.g. try and exit in Lehmann–Rabin), which the adversary may
	// schedule at any moment but is never obliged to.
	UserMoves(s S, i int) []pa.Step[S]
}

// Config selects the digitization granularity.
type Config struct {
	// StepsPerWindow bounds how many algorithm steps one process may take
	// within a single time window. 1 is the classic round model; larger
	// values approximate arbitrarily fast processes.
	StepsPerWindow int
}

// State is a product state: the algorithm state plus the window
// bookkeeping of the digitized Unit-Time constraint.
type State[S comparable] struct {
	// Base is the algorithm state.
	Base S
	// Owes has bit i set when process i was ready at the last window
	// boundary and has not stepped since; tick waits for these.
	Owes uint16
	// Left packs, four bits per process, how many more steps each process
	// may take before the next tick.
	Left uint64
}

func left(packed uint64, i int) int { return int(packed>>(4*i)) & 0xF }
func setLeft(packed uint64, i, v int) uint64 {
	shift := 4 * i
	return (packed &^ (0xF << shift)) | uint64(v)<<shift
}

// Product builds the digitized-scheduler product automaton of the model.
// Its nondeterministic choices are exactly the adversary's; resolving them
// optimally in the resulting MDP quantifies over the digitized Unit-Time
// schema.
//
// When m is Symmetric, the automaton is the product's quotient by the
// model's symmetry group: its start and successor states are each
// orbit's representative (Canon), successors that fall into one orbit
// merge with their probabilities added, and its Orbit reports how many
// product states a representative stands for. Every optimal value of a
// query whose state sets the group maps onto themselves is the same as
// on the full product; Unreduced(m) explores the full product, for
// queries about named processes.
func Product[S comparable](m Model[S], cfg Config) (*pa.Automaton[State[S]], error) {
	n := m.NumProcs()
	if n <= 0 || n > MaxProcs {
		return nil, fmt.Errorf("sched: %d processes outside 1..%d", n, MaxProcs)
	}
	k := cfg.StepsPerWindow
	if k <= 0 || k > MaxStepsPerWindow {
		return nil, fmt.Errorf("sched: StepsPerWindow %d outside 1..%d", k, MaxStepsPerWindow)
	}

	fullBudget := uint64(0)
	for i := 0; i < n; i++ {
		fullBudget = setLeft(fullBudget, i, k)
	}

	readyMask := func(s S) uint16 {
		var mask uint16
		for i := 0; i < n; i++ {
			if len(m.Moves(s, i)) > 0 {
				mask |= 1 << i
			}
		}
		return mask
	}

	sym := ringOf(m)
	bases := m.Start()
	starts := make([]State[S], 0, len(bases))
	for _, s := range bases {
		starts = append(starts, sym.canon(State[S]{Base: s, Owes: readyMask(s), Left: fullBudget}))
	}

	steps := func(ps State[S]) []pa.Step[State[S]] {
		// Each process's Moves and UserMoves are queried once; the ready
		// mask the tick needs is read off the same answers.
		var moves, user [MaxProcs][]pa.Step[S]
		var ready uint16
		count := 0
		for i := 0; i < n; i++ {
			moves[i] = m.Moves(ps.Base, i)
			user[i] = m.UserMoves(ps.Base, i)
			if len(moves[i]) > 0 {
				ready |= 1 << i
				if left(ps.Left, i) > 0 {
					count += len(moves[i])
				}
			}
			count += len(user[i])
		}
		tick := ps.Owes&ready == 0
		if tick {
			count++
		}
		out := make([]pa.Step[State[S]], 0, count)

		// Algorithm steps, budget permitting.
		for i := 0; i < n; i++ {
			budget := left(ps.Left, i)
			if budget == 0 || len(moves[i]) == 0 {
				continue
			}
			owes := ps.Owes &^ (1 << i)
			newLeft := setLeft(ps.Left, i, budget-1)
			for _, mv := range moves[i] {
				out = append(out, pa.Step[State[S]]{
					Action: mv.Action,
					Next: prob.MapDist(mv.Next, func(b S) State[S] {
						return sym.canon(State[S]{Base: b, Owes: owes, Left: newLeft})
					}),
				})
			}
		}

		// User moves: always schedulable, no obligations touched.
		for i := 0; i < n; i++ {
			for _, mv := range user[i] {
				out = append(out, pa.Step[State[S]]{
					Action: mv.Action,
					Next: prob.MapDist(mv.Next, func(b S) State[S] {
						return sym.canon(State[S]{Base: b, Owes: ps.Owes, Left: ps.Left})
					}),
				})
			}
		}

		// Tick: allowed when no currently-ready process still owes a step.
		if tick {
			out = append(out, pa.Step[State[S]]{
				Action: TickAction,
				Next: prob.Point(sym.canon(State[S]{
					Base: ps.Base,
					Owes: ready,
					Left: fullBudget,
				})),
			})
		}
		return out
	}

	auto := &pa.Automaton[State[S]]{
		Name:  m.Name() + "/unit-time(k=" + strconv.Itoa(k) + ")",
		Start: starts,
		Steps: steps,
		Duration: func(a string) prob.Rat {
			if a == TickAction {
				return prob.One()
			}
			return prob.Zero()
		},
	}
	if sym != nil {
		auto.Orbit = sym.orbit
	}
	return auto, nil
}

// LiftPred lifts a predicate on algorithm states to product states.
func LiftPred[S comparable](pred func(S) bool) func(State[S]) bool {
	return func(ps State[S]) bool { return pred(ps.Base) }
}
