package dining

// This file supports mechanized checking of the appendix lemmas. Lemmas
// A.4–A.10 are statements conditioned on first(flip_j, d) events: "IF the
// first coin flip of process j yields d, THEN within time t ...". The
// conditioning is realized by a rigged model: designated processes'
// *first* flip is deterministic (the conditioned outcome), after which
// they flip fairly again. Because first(flip_j, d) depends only on that
// one outcome and the adversary cannot influence the coin itself, the
// worst case of the rigged model equals the worst case conditional on the
// event — exactly the reading of the lemma statements.

import (
	"fmt"
	"strings"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// Rig designates the forced first-flip outcome of one process.
type Rig struct {
	Proc int
	Dir  Dir
}

// RState is a rigged-model state: the algorithm state plus the mask of
// processes whose forced flip is still pending.
type RState struct {
	S       State
	Pending uint16
}

// String renders the state with the pending rig mask.
func (r RState) String() string {
	if r.Pending == 0 {
		return r.S.String()
	}
	return fmt.Sprintf("%v(rig:%b)", r.S, r.Pending)
}

// RiggedModel wraps the ring model, forcing the first flip of each rigged
// process.
type RiggedModel struct {
	inner  *Model
	dirs   map[int]Dir
	starts []State
}

var _ sched.Model[RState] = (*RiggedModel)(nil)

// NewRigged builds the rigged n-process ring.
func NewRigged(n int, rigs ...Rig) (*RiggedModel, error) {
	inner, err := New(n)
	if err != nil {
		return nil, err
	}
	dirs := make(map[int]Dir, len(rigs))
	for _, rig := range rigs {
		if rig.Proc < 0 || rig.Proc >= n {
			return nil, fmt.Errorf("dining: rigged process %d outside 0..%d", rig.Proc, n-1)
		}
		if rig.Dir != Left && rig.Dir != Right {
			return nil, fmt.Errorf("dining: rig for process %d needs Left or Right", rig.Proc)
		}
		if _, dup := dirs[rig.Proc]; dup {
			return nil, fmt.Errorf("dining: process %d rigged twice", rig.Proc)
		}
		dirs[rig.Proc] = rig.Dir
	}
	return &RiggedModel{inner: inner, dirs: dirs}, nil
}

// Name implements sched.Model.
func (m *RiggedModel) Name() string {
	parts := make([]string, 0, len(m.dirs))
	for p, d := range m.dirs {
		parts = append(parts, fmt.Sprintf("%d%s", p, d))
	}
	return fmt.Sprintf("%s/rigged(%s)", m.inner.Name(), strings.Join(parts, ","))
}

// NumProcs implements sched.Model.
func (m *RiggedModel) NumProcs() int { return m.inner.NumProcs() }

// StartFrom builds the rigged start state: every rigged process's forced
// flip is pending.
func (m *RiggedModel) StartFrom(s State) RState {
	var pending uint16
	for p := range m.dirs {
		pending |= 1 << p
	}
	return RState{S: s, Pending: pending}
}

// WithStarts sets the base start states of the rigged model. The lemma
// hypotheses describe mid-protocol configurations (a process in D, W, S,
// ...), which are unreachable from the all-R start once the rig has
// consumed the first flip; starting the rigged model from every reachable
// base state of the unrigged ring makes the conditioning apply "from now
// on" at an arbitrary reachable point, which is the lemmas' reading.
func (m *RiggedModel) WithStarts(states []State) *RiggedModel {
	m.starts = append([]State(nil), states...)
	return m
}

// Start implements sched.Model.
func (m *RiggedModel) Start() []RState {
	if len(m.starts) == 0 {
		return []RState{m.StartFrom(m.inner.Start()[0])}
	}
	out := make([]RState, len(m.starts))
	for i, s := range m.starts {
		out[i] = m.StartFrom(s)
	}
	return out
}

// Moves implements sched.Model: identical to the ring except that a
// pending rigged process's flip lands deterministically.
func (m *RiggedModel) Moves(rs RState, i int) []pa.Step[RState] {
	l := rs.S.Local(i)
	if l.PC == F && rs.Pending&(1<<i) != 0 {
		d := m.dirs[i]
		next := RState{
			S:       rs.S.with(i, Local{PC: W, U: d}),
			Pending: rs.Pending &^ (1 << i),
		}
		return []pa.Step[RState]{{Action: FlipAction(i), Next: prob.Point(next)}}
	}
	return liftSteps(m.inner.Moves(rs.S, i), rs.Pending)
}

// UserMoves implements sched.Model.
func (m *RiggedModel) UserMoves(rs RState, i int) []pa.Step[RState] {
	return liftSteps(m.inner.UserMoves(rs.S, i), rs.Pending)
}

func liftSteps(steps []pa.Step[State], pending uint16) []pa.Step[RState] {
	out := make([]pa.Step[RState], 0, len(steps))
	for _, st := range steps {
		out = append(out, pa.Step[RState]{
			Action: st.Action,
			Next: prob.MapDist(st.Next, func(s State) RState {
				return RState{S: s, Pending: pending}
			}),
		})
	}
	return out
}

// PendingAll reports whether every rig of the model is still pending in
// the state — the lemma hypotheses require the conditioned flips to be in
// the future.
func (m *RiggedModel) PendingAll(rs RState) bool {
	for p := range m.dirs {
		if rs.Pending&(1<<p) == 0 {
			return false
		}
	}
	return true
}
