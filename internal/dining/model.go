// Package dining implements the Lehmann–Rabin randomized Dining
// Philosophers algorithm exactly as formalized in Sections 5 and 6.1 of
// Lynch, Saias and Segala (PODC 1994).
//
// In the paper, n processes sit on a ring with n resources interspersed:
// resource i lies between process i and process i+1 (indices mod n), so
// process i's right resource is Res_i and its left resource is Res_{i-1}.
// Each process runs the loop of Figure 1 of the paper: flip a fair coin
// for a side, wait for the resource on that side, then check the other
// side once — on success enter the critical region, on failure put the
// first resource back and flip again. The loop never names the ring, only
// a process's two resources, so Model runs it on any Topology (Section 7
// asks about "topologies that are more general than rings"); New builds
// the ring.
//
// A process state is the pair (pc, u) of Section 6.1, written here with
// the paper's letters: R (remainder), F (ready to flip), W (waiting for
// the first resource), S (checking the second resource), D (dropping the
// first resource), P (pre-critical), C (critical), EF/ES/ER (exit,
// dropping first and second resources, then returning to the remainder
// region). The direction u (the paper's left/right arrow) is meaningful
// only in W, S, D (which side was chosen first) and ES (which side is
// still held); elsewhere it is canonicalized, which shrinks the reachable
// space without losing information (Lemma 6.1: the shared variables are a
// function of the local states).
package dining

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// PC is a program counter value of Figure 1 / the table of Section 6.1.
type PC uint8

// Program counter values, in the paper's order.
const (
	R  PC = iota // remainder region
	F            // ready to flip
	W            // waiting for first resource
	S            // checking second resource
	D            // dropping first resource
	P            // pre-critical region
	C            // critical region
	EF           // exit: dropping first resource
	ES           // exit: dropping second resource
	ER           // exit: about to return to remainder
)

// String returns the paper's name for the program counter.
func (pc PC) String() string {
	switch pc {
	case R:
		return "R"
	case F:
		return "F"
	case W:
		return "W"
	case S:
		return "S"
	case D:
		return "D"
	case P:
		return "P"
	case C:
		return "C"
	case EF:
		return "EF"
	case ES:
		return "ES"
	case ER:
		return "ER"
	default:
		return fmt.Sprintf("PC(%d)", uint8(pc))
	}
}

// Dir is the value of the local variable u: the side of the first (in ES,
// the still-held) resource.
type Dir uint8

// Directions. None is the canonical value at program counters where u is
// irrelevant.
const (
	None Dir = iota
	Left
	Right
)

// Opp complements a direction, the paper's opp operator.
func (d Dir) Opp() Dir {
	switch d {
	case Left:
		return Right
	case Right:
		return Left
	default:
		return None
	}
}

// String renders the direction as the paper's arrow.
func (d Dir) String() string {
	switch d {
	case Left:
		return "←"
	case Right:
		return "→"
	default:
		return ""
	}
}

// usesDir reports whether u is meaningful at the program counter.
func usesDir(pc PC) bool {
	return pc == W || pc == S || pc == D || pc == ES
}

// Local is one process's local state X_i = (pc_i, u_i).
type Local struct {
	PC PC
	U  Dir
}

// String renders the local state in the paper's notation, e.g. "W←".
func (l Local) String() string { return l.PC.String() + l.U.String() }

// State is a global state of the ring: the vector of local states. The
// shared resource variables are derived (Lemma 6.1) and therefore not
// stored. State is comparable and compact: one byte per process.
type State struct {
	n      uint8
	locals [sched.MaxProcs]uint8
}

func packLocal(l Local) uint8 { return uint8(l.PC) | uint8(l.U)<<4 }
func unpackLocal(b uint8) Local {
	return Local{PC: PC(b & 0xF), U: Dir(b >> 4)}
}

// NewState builds a state from explicit local states; directions are
// canonicalized at program counters where u is irrelevant.
func NewState(locals ...Local) (State, error) {
	if len(locals) < 2 || len(locals) > sched.MaxProcs {
		return State{}, fmt.Errorf("dining: %d processes outside 2..%d", len(locals), sched.MaxProcs)
	}
	var s State
	s.n = uint8(len(locals))
	for i, l := range locals {
		if !usesDir(l.PC) {
			l.U = None
		} else if l.U == None {
			return State{}, fmt.Errorf("dining: process %d at %v needs a direction", i, l.PC)
		}
		s.locals[i] = packLocal(l)
	}
	return s, nil
}

// MustState is like NewState but panics on invalid input; for tests and
// examples.
func MustState(locals ...Local) State {
	s, err := NewState(locals...)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the ring size.
func (s State) N() int { return int(s.n) }

// Local returns X_i. An index outside 0..n-1 wraps around the ring
// (Local(-1) is X_{n-1}, Local(n) is X_0); an in-range index, which is
// every read but a neighbour lookup's i±1, skips wrap's integer modulo.
func (s State) Local(i int) Local {
	if uint(i) >= uint(s.n) {
		i = s.wrap(i)
	}
	return unpackLocal(s.locals[i])
}

// wrap reduces an index modulo the ring size, accepting negatives.
func (s State) wrap(i int) int {
	n := int(s.n)
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// with returns a copy of s with X_i replaced (canonicalizing u).
func (s State) with(i int, l Local) State {
	if !usesDir(l.PC) {
		l.U = None
	}
	s.locals[s.wrap(i)] = packLocal(l)
	return s
}

// String renders the global state in the paper's compact notation, e.g.
// "[W← S→ F R]".
func (s State) String() string {
	parts := make([]string, s.N())
	for i := range parts {
		parts[i] = s.Local(i).String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// holdsRight reports whether a process in local state l holds its right
// resource; holdsLeft, its left resource. In P, C and EF both are held
// (Lemma 6.1).
func holdsRight(l Local) bool {
	switch l.PC {
	case P, C, EF:
		return true
	case S, D, ES:
		return l.U == Right
	default:
		return false
	}
}

func holdsLeft(l Local) bool {
	switch l.PC {
	case P, C, EF:
		return true
	case S, D, ES:
		return l.U == Left
	default:
		return false
	}
}

// ResTaken returns the derived value of the shared variable Res_j on the
// ring: taken iff process j holds its right resource or process j+1 holds
// its left resource (Lemma 6.1).
func (s State) ResTaken(j int) bool {
	return holdsRight(s.Local(j)) || holdsLeft(s.Local(j+1))
}

// resOnSide returns the index of process i's resource on side d on the
// ring, for the spiteful policy and the appendix lemmas.
func (s State) resOnSide(i int, d Dir) int {
	if d == Right {
		return s.wrap(i)
	}
	return s.wrap(i - 1)
}

// Model is the Lehmann–Rabin algorithm on a topology, implementing
// sched.Model so that package sched can close it under the digitized
// Unit-Time adversaries. Figure 1's process code names the layout only
// through two lookups, a process's resource on one side and whether a
// resource is taken, so the topology enters as fixed-size tables that
// construction fills and the moves only read.
type Model struct {
	n, resources int
	name         string
	// left[i] and right[i] are process i's resources.
	left, right [sched.MaxProcs]int8
	// rightUser[r] is the process whose right resource is r, leftUser[r]
	// the process whose left resource is r; -1 for none. Topology.Validate
	// admits at most 2·MaxProcs resources.
	rightUser, leftUser [2 * sched.MaxProcs]int8
	ring                bool // the topology is Ring(n): sched.Symmetric
}

var _ sched.Symmetric[State] = (*Model)(nil)

// New returns the n-process Lehmann–Rabin ring, n in 2..sched.MaxProcs.
func New(n int) (*Model, error) {
	if n < 2 || n > sched.MaxProcs {
		return nil, fmt.Errorf("dining: ring size %d outside 2..%d", n, sched.MaxProcs)
	}
	// Every Monte Carlo job's set-up calls New, so the ring's tables are
	// filled straight from ringSides: building Ring(n) and formatting
	// the name with Sprintf made New(8) take 0.6 µs instead of 0.17 µs.
	m := newModel(n, n, "lehmann-rabin(n="+strconv.Itoa(n)+")", func(i int) (int, int) {
		return ringSides(n, i)
	})
	m.ring = true
	return m, nil
}

// MustNew is like New but panics on invalid input.
func MustNew(n int) *Model {
	m, err := New(n)
	if err != nil {
		panic(err)
	}
	return m
}

// NewGeneral returns the Lehmann–Rabin algorithm on a topology, after
// validating it.
func NewGeneral(t Topology) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NumProcs()
	m := newModel(n, t.Resources, "lehmann-rabin("+t.Name+")", func(i int) (int, int) {
		return t.Left[i], t.Right[i]
	})
	m.ring = t.Resources == n
	for i := 0; i < n; i++ {
		if l, r := ringSides(n, i); t.Left[i] != l || t.Right[i] != r {
			m.ring = false
		}
	}
	return m, nil
}

// MustNewGeneral is like NewGeneral but panics on invalid input.
func MustNewGeneral(t Topology) *Model {
	m, err := NewGeneral(t)
	if err != nil {
		panic(err)
	}
	return m
}

// newModel fills the tables of a valid topology of n processes and the
// given number of resources, in which process i's resources are sides(i).
func newModel(n, resources int, name string, sides func(i int) (left, right int)) *Model {
	m := &Model{n: n, resources: resources, name: name}
	for r := range m.rightUser {
		m.rightUser[r], m.leftUser[r] = -1, -1
	}
	for i := 0; i < n; i++ {
		l, r := sides(i)
		m.left[i], m.right[i] = int8(l), int8(r)
		m.rightUser[r] = int8(i)
		m.leftUser[l] = int8(i)
	}
	return m
}

// Name implements sched.Model.
func (m *Model) Name() string { return m.name }

// NumProcs implements sched.Model.
func (m *Model) NumProcs() int { return m.n }

// Ring implements sched.Symmetric. Figure 1's code names only a
// process's own two resources, so on the ring topology every rotation
// of the process indices maps the model onto itself, and so does every
// reflection that also swaps each process's left and right; a process's
// u then names the other side. Other topologies report no symmetry.
func (m *Model) Ring() bool { return m.ring }

// Locals implements sched.Symmetric: each process's packed local state,
// and the same with its direction u swapped.
func (m *Model) Locals(s State) (locals, mirrored [sched.MaxProcs]uint8) {
	locals = s.locals
	for i, b := range locals[:s.n] {
		if b>>4 != uint8(None) {
			b ^= uint8(Left|Right) << 4
		}
		mirrored[i] = b
	}
	return locals, mirrored
}

// WithLocals implements sched.Symmetric.
func (m *Model) WithLocals(locals [sched.MaxProcs]uint8) State {
	return State{n: uint8(m.n), locals: locals}
}

// Start implements sched.Model: all processes in the remainder region.
func (m *Model) Start() []State {
	locals := make([]Local, m.n)
	for i := range locals {
		locals[i] = Local{PC: R}
	}
	return []State{MustState(locals...)}
}

// resOnSide returns the index of process i's resource on side d.
func (m *Model) resOnSide(i int, d Dir) int {
	if d == Right {
		return int(m.right[i])
	}
	return int(m.left[i])
}

// ResTaken returns the derived value of the shared variable Res_r: taken
// iff the process using r as its right resource holds its right, or the
// one using r as its left resource holds its left (Lemma 6.1).
func (m *Model) ResTaken(s State, r int) bool {
	if u := m.rightUser[r]; u >= 0 && holdsRight(s.Local(int(u))) {
		return true
	}
	u := m.leftUser[r]
	return u >= 0 && holdsLeft(s.Local(int(u)))
}

// InvariantHolds checks the mutual-exclusion invariant of Lemma 6.1: no
// resource is held from both sides at once.
func (m *Model) InvariantHolds(s State) bool {
	for r := 0; r < m.resources; r++ {
		ru, lu := m.rightUser[r], m.leftUser[r]
		if ru >= 0 && lu >= 0 && holdsRight(s.Local(int(ru))) && holdsLeft(s.Local(int(lu))) {
			return false
		}
	}
	return true
}

// Action names, one namespace per process: "flip_3" etc. Moves sits on
// the simulator's hot path, so the small fixed grid of names is built
// once up front and indexed by action kind and process — a Sprintf per
// move query showed up as a top allocator in the Monte Carlo engine's
// profile.
type actionKind uint8

// The action kinds of Figure 1, in actionKinds order.
const (
	actFlip actionKind = iota
	actWait
	actSecond
	actDrop
	actCrit
	actDropFirst
	actDropSecond
	actRem
	actTry
	actExit
	numActionKinds
)

// actionKinds names each action kind.
var actionKinds = [numActionKinds]string{"flip", "wait", "second", "drop", "crit", "dropf", "drops", "rem", "try", "exit"}

// actionTable holds every action kind's name for every process index.
var actionTable = func() (t [numActionKinds][sched.MaxProcs]string) {
	for k, kind := range actionKinds {
		for i := range t[k] {
			t[k][i] = kind + "_" + strconv.Itoa(i)
		}
	}
	return t
}()

func actionName(k actionKind, i int) string {
	if i >= 0 && i < sched.MaxProcs {
		return actionTable[k][i]
	}
	return fmt.Sprintf("%s_%d", actionKinds[k], i)
}

// FlipAction returns the name of process i's coin-flip action, for use in
// first/next event schemas (Section 4 of the paper).
func FlipAction(i int) string { return actionName(actFlip, i) }

// Moves implements sched.Model: the algorithm steps of process i, which
// the unit-time constraint forces the adversary to schedule. A process in
// R or C has none (try and exit are user moves).
func (m *Model) Moves(s State, i int) []pa.Step[State] {
	i = s.wrap(i)
	l := s.Local(i)
	switch l.PC {
	case F:
		// Line 1 of Figure 1: u_i <- random, then wait for that side.
		return []pa.Step[State]{{
			Action: FlipAction(i),
			Next: prob.MustUniform(
				s.with(i, Local{PC: W, U: Left}),
				s.with(i, Local{PC: W, U: Right}),
			),
		}}
	case W:
		// Line 2: take the first resource if free, else busy-wait.
		next := s
		if !m.ResTaken(s, m.resOnSide(i, l.U)) {
			next = s.with(i, Local{PC: S, U: l.U})
		}
		return []pa.Step[State]{{Action: actionName(actWait, i), Next: prob.Point(next)}}
	case S:
		// Line 3: check the second resource once.
		var next State
		if !m.ResTaken(s, m.resOnSide(i, l.U.Opp())) {
			next = s.with(i, Local{PC: P})
		} else {
			next = s.with(i, Local{PC: D, U: l.U})
		}
		return []pa.Step[State]{{Action: actionName(actSecond, i), Next: prob.Point(next)}}
	case D:
		// Line 4: put the first resource down and go flip again.
		return []pa.Step[State]{{
			Action: actionName(actDrop, i),
			Next:   prob.Point(s.with(i, Local{PC: F})),
		}}
	case P:
		// Line 5: announce the critical region.
		return []pa.Step[State]{{
			Action: actionName(actCrit, i),
			Next:   prob.Point(s.with(i, Local{PC: C})),
		}}
	case EF:
		// Line 7: nondeterministically choose which resource to put down
		// first; u records the one still held.
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
		// Line 8: put down the remaining resource.
		return []pa.Step[State]{{
			Action: actionName(actDropSecond, i),
			Next:   prob.Point(s.with(i, Local{PC: ER})),
		}}
	case ER:
		// Line 9: report back to the user.
		return []pa.Step[State]{{
			Action: actionName(actRem, i),
			Next:   prob.Point(s.with(i, Local{PC: R})),
		}}
	default: // R, C
		return nil
	}
}

// UserMoves implements sched.Model: try and exit are controlled by the
// user (hence, in the worst case, by the adversary) and carry no timing
// obligation.
func (m *Model) UserMoves(s State, i int) []pa.Step[State] {
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
