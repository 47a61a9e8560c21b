package dining

// The ring transcription of Figure 1 that Model replaced, kept as the
// reference the topology-table Model is pinned to: every resource lookup
// here goes through the ring arithmetic of State (ResTaken, resOnSide,
// wrap), none through a table.

import (
	"slices"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
)

// ringOracle is the n-process Lehmann–Rabin ring.
type ringOracle struct{ n int }

// Moves is Figure 1 on the ring: the algorithm steps of process i.
func (ringOracle) Moves(s State, i int) []pa.Step[State] {
	i = s.wrap(i)
	l := s.Local(i)
	switch l.PC {
	case F:
		return []pa.Step[State]{{
			Action: FlipAction(i),
			Next: prob.MustUniform(
				s.with(i, Local{PC: W, U: Left}),
				s.with(i, Local{PC: W, U: Right}),
			),
		}}
	case W:
		next := s
		if !s.ResTaken(s.resOnSide(i, l.U)) {
			next = s.with(i, Local{PC: S, U: l.U})
		}
		return []pa.Step[State]{{Action: actionName(actWait, i), Next: prob.Point(next)}}
	case S:
		var next State
		if !s.ResTaken(s.resOnSide(i, l.U.Opp())) {
			next = s.with(i, Local{PC: P})
		} else {
			next = s.with(i, Local{PC: D, U: l.U})
		}
		return []pa.Step[State]{{Action: actionName(actSecond, i), Next: prob.Point(next)}}
	case D:
		return []pa.Step[State]{{
			Action: actionName(actDrop, i),
			Next:   prob.Point(s.with(i, Local{PC: F})),
		}}
	case P:
		return []pa.Step[State]{{
			Action: actionName(actCrit, i),
			Next:   prob.Point(s.with(i, Local{PC: C})),
		}}
	case EF:
		return []pa.Step[State]{
			{
				Action: actionName(actDropFirst, i),
				Next:   prob.Point(s.with(i, Local{PC: ES, U: Right})),
			},
			{
				Action: actionName(actDropFirst, i),
				Next:   prob.Point(s.with(i, Local{PC: ES, U: Left})),
			},
		}
	case ES:
		return []pa.Step[State]{{
			Action: actionName(actDropSecond, i),
			Next:   prob.Point(s.with(i, Local{PC: ER})),
		}}
	case ER:
		return []pa.Step[State]{{
			Action: actionName(actRem, i),
			Next:   prob.Point(s.with(i, Local{PC: R})),
		}}
	default: // R, C
		return nil
	}
}

// UserMoves is the ring's try and exit.
func (ringOracle) UserMoves(s State, i int) []pa.Step[State] {
	i = s.wrap(i)
	switch s.Local(i).PC {
	case R:
		return []pa.Step[State]{{
			Action: actionName(actTry, i),
			Next:   prob.Point(s.with(i, Local{PC: F})),
		}}
	case C:
		return []pa.Step[State]{{
			Action: actionName(actExit, i),
			Next:   prob.Point(s.with(i, Local{PC: EF})),
		}}
	default:
		return nil
	}
}

// InvariantHolds is Lemma 6.1's invariant on the ring: no process holds
// its right resource while its right neighbour holds its left.
func (ringOracle) InvariantHolds(s State) bool {
	for j := 0; j < s.N(); j++ {
		if holdsRight(s.Local(j)) && holdsLeft(s.Local(j+1)) {
			return false
		}
	}
	return true
}

// reachable enumerates the base states the oracle reaches from the
// all-R start through algorithm and user moves, breadth first.
func (o ringOracle) reachable() []State {
	start := MustNew(o.n).Start()[0]
	seen := map[State]bool{start: true}
	queue := []State{start}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for i := 0; i < o.n; i++ {
			for _, st := range slices.Concat(o.Moves(s, i), o.UserMoves(s, i)) {
				for _, next := range st.Next.Support() {
					if !seen[next] {
						seen[next] = true
						queue = append(queue, next)
					}
				}
			}
		}
	}
	return queue
}

// everyState enumerates all 14^n combinations of local states, the
// unreachable ones (which break the invariant) included.
func everyState(n int) []State {
	var locals []Local
	for pc := R; pc <= ER; pc++ {
		if usesDir(pc) {
			locals = append(locals, Local{PC: pc, U: Left}, Local{PC: pc, U: Right})
		} else {
			locals = append(locals, Local{PC: pc})
		}
	}
	out := []State{MustNew(n).Start()[0]}
	for i := 0; i < n; i++ {
		var grown []State
		for _, s := range out {
			for _, l := range locals {
				grown = append(grown, s.with(i, l))
			}
		}
		out = grown
	}
	return out
}

// sameSteps reports whether two step lists agree in order, action, support
// order and every branch probability.
func sameSteps(a, b []pa.Step[State]) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Action != b[k].Action || !slices.Equal(a[k].Next.Support(), b[k].Next.Support()) {
			return false
		}
		wa, wb := a[k].Next.Weights(), b[k].Next.Weights()
		for w := range wa {
			if !wa[w].Equal(wb[w]) {
				return false
			}
		}
	}
	return true
}

// TestModelMatchesRingOracle pins Model on Ring(n) to the ring
// transcription on every reachable base state: the moves and user moves
// of every process (actions, step order, distributions), the derived
// value of every resource, and the invariant. For n ≤ 3 it checks every
// combination of local states too, so the invariant is also seen failing.
func TestModelMatchesRingOracle(t *testing.T) {
	for _, c := range []struct{ n, states int }{{2, 131}, {3, 1512}, {4, 17395}, {5, 199784}} {
		n := c.n
		if n == 5 && testing.Short() {
			continue
		}
		oracle, model := ringOracle{n: n}, MustNew(n)
		states := oracle.reachable()
		if len(states) != c.states {
			t.Errorf("n=%d: %d reachable base states, want %d", n, len(states), c.states)
		}
		if n <= 3 {
			states = append(states, everyState(n)...)
		}
		for _, s := range states {
			for i := 0; i < n; i++ {
				if !sameSteps(model.Moves(s, i), oracle.Moves(s, i)) {
					t.Fatalf("n=%d state %v proc %d: Moves %v, oracle %v", n, s, i, model.Moves(s, i), oracle.Moves(s, i))
				}
				if !sameSteps(model.UserMoves(s, i), oracle.UserMoves(s, i)) {
					t.Fatalf("n=%d state %v proc %d: UserMoves %v, oracle %v", n, s, i, model.UserMoves(s, i), oracle.UserMoves(s, i))
				}
			}
			for r := 0; r < n; r++ {
				if model.ResTaken(s, r) != s.ResTaken(r) {
					t.Fatalf("n=%d state %v: ResTaken(%d) = %t, oracle %t", n, s, r, model.ResTaken(s, r), s.ResTaken(r))
				}
			}
			if model.InvariantHolds(s) != oracle.InvariantHolds(s) {
				t.Fatalf("n=%d state %v: InvariantHolds = %t, oracle %t", n, s, model.InvariantHolds(s), oracle.InvariantHolds(s))
			}
		}
	}
}
