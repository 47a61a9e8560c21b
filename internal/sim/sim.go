// Package sim is the Monte Carlo counterpart of the exact checker: it runs
// a multi-process model (sched.Model) in dense time under programmable
// Unit-Time adversaries and estimates reach probabilities and expected
// times.
//
// The engine enforces exactly the Unit-Time schema of Section 6.2 of the
// paper: every process that is ready (enables an algorithm move) must step
// within time 1 of becoming ready, time diverges, and the adversary — here
// called a Policy — freely chooses interleavings, exact step times and the
// resolution of nondeterministic branches, with complete knowledge of the
// run so far, including past coin flips. Unlike the digitized checker, the
// simulator does not quantize step times, so it explores the paper's
// adversary class directly (one policy at a time).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/sched"
)

// View is what a policy sees when asked for its next choice: the current
// state, the clock, the scheduling obligations, and the moves available.
//
// The slices of a View are owned by the engine and must not be modified:
// Deadline is reused between steps, and the others are entries of the
// compiled model's transition cache (Compile), shared across trials and
// workers. They are valid only for the duration of the Choose call, and a
// policy must copy anything it wants to retain.
type View[S comparable] struct {
	// State is the current algorithm state.
	State S
	// Now is the current time.
	Now float64
	// DeadlineMin is the latest time the next step may happen: the
	// earliest unit-time deadline among ready processes (+Inf if none).
	DeadlineMin float64
	// Ready lists processes with algorithm moves, ascending.
	Ready []int
	// Deadline holds each process's unit-time deadline, indexed by
	// process; a process that is not ready holds +Inf (no obligation).
	Deadline []float64
	// MoveCount holds each process's number of algorithm moves
	// (nondeterministic branches the policy may pick among), indexed by
	// process; zero when the process is not ready.
	MoveCount []int
	// UserMovers lists processes with user moves available, ascending.
	UserMovers []int
	// UserMoveCount holds each process's number of user moves, indexed
	// by process; zero when the process has none.
	UserMoveCount []int
}

// Choice is a policy decision: process Proc performs its Move-th algorithm
// move (or user move when User is set) at time At.
type Choice struct {
	Proc int
	Move int
	User bool
	// At is the time of the step; the engine requires Now <= At <=
	// DeadlineMin.
	At float64
}

// Policy resolves the nondeterminism of a run: it is the operational form
// of an adversary with complete knowledge of the past. Returning ok =
// false ends the run; the engine rejects that while any process is ready,
// since deserting a ready process violates Unit-Time.
type Policy[S comparable] interface {
	Choose(v *View[S], rng *rand.Rand) (c Choice, ok bool)
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc[S comparable] func(v *View[S], rng *rand.Rand) (Choice, bool)

// Choose implements Policy.
func (f PolicyFunc[S]) Choose(v *View[S], rng *rand.Rand) (Choice, bool) { return f(v, rng) }

var _ Policy[int] = (PolicyFunc[int])(nil)

// Options configures a run.
type Options[S comparable] struct {
	// Start overrides the model's start state when Set is true.
	Start    S
	SetStart bool
	// MaxEvents bounds the number of steps (default 100000).
	MaxEvents int
	// MaxTime bounds the clock (default 1000). The bound is inclusive: a
	// step scheduled at a time <= MaxTime is applied and may reach the
	// target; a step scheduled strictly after MaxTime is never applied —
	// the run is truncated at the bound with Reached reflecting only what
	// happened by MaxTime.
	MaxTime float64
	// Observer, when non-nil, is called after every applied step with the
	// step time, acting process, action name and resulting state — the
	// hook used by the trace recorder.
	Observer func(t float64, proc int, action string, next S)
}

func (o Options[S]) withDefaults() Options[S] {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 100000
	}
	if o.MaxTime <= 0 {
		o.MaxTime = 1000
	}
	return o
}

// Result reports one run.
type Result[S comparable] struct {
	// Reached reports whether the target was hit; ReachedAt is the time.
	Reached   bool
	ReachedAt float64
	// Events is the number of steps taken.
	Events int
	// Final is the last state.
	Final S
}

// Errors returned by the engine.
var (
	ErrPolicyDeserted = errors.New("sim: policy halted while a process was ready (violates Unit-Time)")
	ErrBadChoice      = errors.New("sim: policy returned an invalid choice")
	// ErrBadModel reports a model that handed the engine an invalid step —
	// today, a step whose successor distribution is empty (the zero
	// prob.Dist in a hand-built pa.Step). The engine detects it before
	// sampling, so the run fails with a typed, wrappable error instead of
	// a quarantined Pick panic.
	ErrBadModel = errors.New("sim: model returned an invalid step")
	// ErrInvalidArgument reports a malformed call (nil model, policy,
	// policy factory, target or RNG, or a non-positive trial budget): the
	// engine rejects it up front with a clear error instead of panicking
	// deep inside a run.
	ErrInvalidArgument = errors.New("sim: invalid argument")
)

// RunOnce executes one run of the model under the policy until the target
// predicate holds, the policy stops in a quiescent state, or a budget is
// exhausted. The model is compiled first (Compile; a no-op for a model
// that already is), so a model that fails the purity spot check is
// rejected with ErrImpureModel. Callers that run many trials compile once
// and pass the *Compiled, so every run shares one warm transition cache.
//
// RunOnce never propagates a panic from the policy, the model, the target
// predicate or the observer: a panic is recovered into a *TrialPanicError
// (with the partial Result accumulated so far), so a single crashing trial
// is an error the caller can quarantine, not a process abort.
func RunOnce[S comparable](m sched.Model[S], p Policy[S], target func(S) bool, opts Options[S], rng *rand.Rand) (res Result[S], err error) {
	if p == nil {
		return Result[S]{}, fmt.Errorf("%w: nil policy", ErrInvalidArgument)
	}
	if target == nil {
		return Result[S]{}, fmt.Errorf("%w: nil target predicate", ErrInvalidArgument)
	}
	if rng == nil {
		return Result[S]{}, fmt.Errorf("%w: nil RNG", ErrInvalidArgument)
	}
	cm, err := Compile(m)
	if err != nil {
		return Result[S]{}, err
	}
	defer recoverTrialPanic(&err)
	var sc viewScratch[S]
	sc.init(cm)
	err = runTrial(&sc, p, target, opts.withDefaults(), rng, &res)
	return res, err
}

// runTrial is the trial loop shared by RunOnce and the parallel arena
// path. It does no argument validation and no panic recovery — callers
// do both — and writes its progress through res so a recovered panic
// still sees the partial Result. The scratch may be reused across
// trials: runTrial resets it, and opts must already carry defaults.
func runTrial[S comparable](sc *viewScratch[S], p Policy[S], target func(S) bool, opts Options[S], rng *rand.Rand, res *Result[S]) error {
	sc.reset()
	state := opts.Start
	if !opts.SetStart {
		if !sc.haveStart {
			sc.start = sc.cm.Start()[0]
			sc.haveStart = true
		}
		state = sc.start
	}
	now := 0.0

	*res = Result[S]{Final: state}
	if target(state) {
		res.Reached = true
		res.ReachedAt = 0
		return nil
	}

	for res.Events < opts.MaxEvents && now <= opts.MaxTime {
		view, dmin := sc.build(state, now)
		choice, ok := p.Choose(view, rng)
		if !ok {
			if len(view.Ready) > 0 {
				return ErrPolicyDeserted
			}
			res.Final = state
			return nil
		}
		// The policy holds a pointer to the View, so the step is checked
		// against the loop's own clock and deadline, not the View's.
		next, t, err := applyChoice(state, now, dmin, choice, sc, rng)
		if err != nil {
			return err
		}
		if t > opts.MaxTime {
			// The policy's (otherwise legal) step falls past the clock
			// bound: truncate the run at MaxTime without applying it, so a
			// late step can never be counted as Reached. Validation above
			// still runs first — an invalid choice past the bound is an
			// error, not a quiet truncation.
			return nil
		}
		res.Events++
		if opts.Observer != nil {
			opts.Observer(t, choice.Proc, sc.action(state, choice), next)
		}
		// The stepping process gives up its deadline; the next build
		// assigns fresh deadlines t+1 to it and to newly ready processes,
		// clears processes no longer ready, and keeps everyone else's
		// older (tighter) deadline.
		sc.deadline[choice.Proc] = math.Inf(1)
		now = t
		state = next
		res.Final = state
		if target(state) {
			res.Reached = true
			res.ReachedAt = now
			return nil
		}
	}
	return nil
}

// viewScratch holds one run's per-step state. The engine reuses it across
// steps and trials, and build serves the compiled model's shared cache
// entry of the current state instead of querying the model, so the hot
// loop allocates nothing in steady state.
type viewScratch[S comparable] struct {
	cm *Compiled[S]
	// n is the model's process count, hoisted once: the per-step loop
	// and every choice validation read it.
	n int
	// cur is the cache entry of the state the last build saw, consumed
	// by applyChoice.
	cur *stateEntry[S]
	// pending is the successor slot of the outcome applyChoice just drew;
	// the next build (always of that same state) reads the entry from it
	// instead of re-hashing the state into the shard maps, and fills it
	// when the state is new (see outcome.succ).
	pending *atomic.Pointer[stateEntry[S]]
	// start memoizes m.Start()[0] after the first trial that needs it
	// (models are purely functional, so the start state is a constant):
	// an arena worker would otherwise pay Start's slice allocation on
	// every one of its trials.
	start     S
	haveStart bool
	// view is the one View the policy borrows each step: build
	// reassigns its fields in place, so no View is zeroed, copied or
	// returned up the stack per event.
	view View[S]
	// deadline persists across steps and doubles as the View's Deadline
	// slice: deadline[i] is process i's unit-time obligation (latest
	// legal step time), +Inf while process i is not ready. Its backing
	// array ends in arenaPad spare bytes, for the reason trialArena gives.
	deadline []float64
}

func (sc *viewScratch[S]) init(cm *Compiled[S]) {
	sc.cm = cm
	sc.n = cm.n
	sc.deadline = make([]float64, cm.n, cm.n+arenaPad/8)
}

// reset clears the per-trial state — every scheduling obligation and the
// cached entries — so one scratch can serve many trials (the parallel
// arena path) without carrying state across them.
func (sc *viewScratch[S]) reset() {
	for i := range sc.deadline {
		sc.deadline[i] = math.Inf(1)
	}
	sc.cur = nil
	sc.pending = nil
}

// build assembles the View from the state's cache entry: the
// ready/userMovers/move-count slices are the entry's own (immutable,
// shared across trials and workers), and only the deadline bookkeeping —
// inherently per-run — is recomputed. Every field is assigned in place,
// each step, so whatever a policy did to the View's fields is undone; a
// composite-literal assignment would zero and copy a whole temporary
// View per event instead. It also returns the earliest deadline, the
// engine's own copy of View.DeadlineMin.
func (sc *viewScratch[S]) build(s S, now float64) (*View[S], float64) {
	slot := sc.pending
	sc.pending = nil
	var e *stateEntry[S]
	if slot != nil {
		e = slot.Load()
	}
	if e == nil {
		var interned bool
		if e, interned = sc.cm.entry(s); interned && slot != nil {
			slot.Store(e)
		}
	}
	sc.cur = e
	dmin := math.Inf(1)
	deadline := sc.deadline[:len(e.moveCount)]
	for i, moves := range e.moveCount {
		if moves == 0 {
			// A process that stopped being ready gives up its obligation.
			deadline[i] = math.Inf(1)
			continue
		}
		d := deadline[i]
		if math.IsInf(d, 1) {
			d = now + 1
			deadline[i] = d
		}
		if d < dmin {
			dmin = d
		}
	}
	v := &sc.view
	v.State = s
	v.Now = now
	v.DeadlineMin = dmin
	v.Ready = e.ready
	v.Deadline = deadline
	v.MoveCount = e.moveCount
	v.UserMovers = e.userMovers
	v.UserMoveCount = e.userCount
	return v, dmin
}

// applyChoice validates the policy's choice in state s and draws the
// successor state. It deliberately does not return the step's action
// label: the hot loop has no use for it, and the entry keeps no steps to
// read it from — runTrial asks the model for the label through sc.action
// only when an observer is attached, and error paths ask on demand.
func applyChoice[S comparable](s S, now, deadlineMin float64, c Choice, sc *viewScratch[S], rng *rand.Rand) (S, float64, error) {
	var zero S
	// Validate the process index before indexing the per-process tables.
	// The unsigned compare folds the negative and too-large cases into
	// one branch, matching the compiler's own slice bounds-check idiom.
	if uint(c.Proc) >= uint(sc.n) {
		return zero, 0, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
	}
	// The move-index bound reads the entry's counts; the samplers are
	// built only once the choice is known to be valid.
	e := sc.cur
	count, k := e.moveCount, c.Proc
	if c.User {
		count, k = e.userCount, c.Proc+sc.n
	}
	if uint(c.Move) >= uint(count[c.Proc]) {
		return zero, 0, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
	}
	t := c.At
	if t < now || t > deadlineMin {
		return zero, 0, fmt.Errorf("%w: time %v outside [%v, %v]", ErrBadChoice, t, now, deadlineMin)
	}
	// A hit is this one atomic load; only the first trial to take one of
	// these moves pays for the model query and the alias tables.
	set := e.samplers[k].Load()
	if set == nil {
		var err error
		if set, err = sc.cm.samplerSet(e, s, c); err != nil {
			return zero, 0, err
		}
	}
	m := (*set)[c.Move]
	// An empty successor distribution (the zero prob.Dist in a hand-built
	// step) has no record to draw; detect it before drawing so the run
	// fails with a typed error.
	if len(m) == 0 {
		return zero, 0, fmt.Errorf("%w: proc %d action %q has an empty successor distribution", ErrBadModel, c.Proc, sc.action(s, c))
	}
	o := m.pick(rng.Float64())
	// The successor's entry is resolved by the next build, if the trial
	// steps from it at all.
	sc.pending = &o.succ
	return o.next, t, nil
}

// action asks the model for the label of the step a validated choice
// names in state s; callers must have bounds-checked c (applyChoice's
// cold paths and the observer hook in runTrial have).
func (sc *viewScratch[S]) action(s S, c Choice) string {
	return sc.cm.steps(s, c)[c.Move].Action
}
