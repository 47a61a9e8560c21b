package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mdp"
	"repro/internal/prob"
)

// ErrNonIntegerTime is returned when a statement's time bound is not a
// nonnegative integer; the digitized checker counts unit ticks.
var ErrNonIntegerTime = errors.New("core: time bound must be a nonnegative integer for the digitized checker")

// ErrEmptyFrom is returned when no reachable state lies in the statement's
// source set, making the check vacuous.
var ErrEmptyFrom = errors.New("core: no reachable state in the source set")

// CheckResult reports the outcome of checking a statement against a model.
type CheckResult[S comparable] struct {
	Stmt Statement[S]
	// Holds reports whether the measured worst case satisfies the bound.
	Holds bool
	// WorstProb is the minimum, over reachable states in From and over
	// all adversaries of the digitized schema, of the probability of
	// reaching To within the time bound. Holds iff WorstProb >= Stmt.Prob.
	WorstProb prob.Rat
	// WorstState is a source state attaining WorstProb.
	WorstState S
	// FromCount and ToCount are the sizes of the source and target sets
	// within the reachable space, counted in states of the full product
	// when the index is a quotient's (mdp.Index.Orbit).
	FromCount, ToCount int
	// Strategy is the adversary's optimal strategy behind WorstProb, kept
	// by CheckStrategy for a witness walk; CheckStatement leaves it nil.
	Strategy *mdp.Strategy
}

// String formats the result as one report line.
func (r CheckResult[S]) String() string {
	verdict := "HOLDS"
	if !r.Holds {
		verdict = "FAILS"
	}
	return fmt.Sprintf("%s  %s: worst-case P = %v (claimed ≥ %v) at %v [|From|=%d |To|=%d]",
		verdict, r.Stmt, r.WorstProb, r.Stmt.Prob, r.WorstState, r.FromCount, r.ToCount)
}

// intTime converts a rational time bound to an integer tick horizon.
func intTime(t prob.Rat) (int, error) {
	b := t.Big()
	if b.Sign() < 0 || !b.IsInt() {
		return 0, fmt.Errorf("%w: %v", ErrNonIntegerTime, t)
	}
	num := b.Num()
	if !num.IsInt64() || num.Int64() > int64(1<<30) {
		return 0, fmt.Errorf("core: time bound %v too large", t)
	}
	return int(num.Int64()), nil
}

// CheckStatement verifies a time-bound statement against an enumerated
// model: it computes, by exact value iteration, the minimum probability
// over all digitized adversaries of reaching the statement's target within
// its time bound, starting from the worst reachable state of its source
// set. The statement holds when that minimum is at least the claimed
// probability.
//
// The solve is mdp.WorstAtHorizon at the statement's horizon t: tick
// layer h evaluates only the states within t−h ticks of the source set
// (the forward cone; nothing else can reach the answer), a state whose
// previous layer is already 1 keeps 1 without evaluation, and the minimum
// over the source set is taken once, at layer t, on fixed-point words,
// with one rational built for the winner. WorstState is the first source
// state in index order that attains the minimum.
//
// The model's MDP and state index are produced by mdp.Explore from a
// sched.Product automaton; the statement's schema is only recorded, not
// interpreted — the digitization is fixed by the product.
func CheckStatement[S comparable](m *mdp.MDP, ix *mdp.Index[S], st Statement[S]) (CheckResult[S], error) {
	return check(m, ix, st, false)
}

// CheckStrategy is CheckStatement keeping the solve's t+1 tick layers,
// where CheckStatement keeps two, as the result's Strategy: its walk is
// the most-damning schedule, so one solve answers check and witness.
func CheckStrategy[S comparable](m *mdp.MDP, ix *mdp.Index[S], st Statement[S]) (CheckResult[S], error) {
	return check(m, ix, st, true)
}

// check is CheckStatement, keeping the strategy when keep is set.
func check[S comparable](m *mdp.MDP, ix *mdp.Index[S], st Statement[S], keep bool) (CheckResult[S], error) {
	res := CheckResult[S]{Stmt: st}
	if err := st.Validate(); err != nil {
		return res, err
	}
	horizon, err := intTime(st.Time)
	if err != nil {
		return res, err
	}

	states := ix.States()
	from, to := st.From.extent(states), st.To.extent(states)
	res.FromCount, res.ToCount = covered(ix, from), covered(ix, to)
	if res.FromCount == 0 {
		return res, ErrEmptyFrom
	}

	target, source := to.bools(len(states)), from.bools(len(states))
	var w mdp.Optimum
	if !keep {
		w, err = m.WorstAtHorizon(target, source, horizon, mdp.MinProb)
	} else if res.Strategy, err = m.WorstStrategy(target, source, horizon, mdp.MinProb); err == nil {
		w = res.Strategy.Optimum()
	}
	if err != nil {
		return res, err
	}
	res.WorstProb, res.WorstState = w.Value, ix.State(w.State)
	res.Holds = !res.WorstProb.Less(st.Prob)
	return res, nil
}

// covered returns how many states of the full automaton the members of
// b stand for: their count, or on a quotient's index the sum of their
// orbit sizes.
func covered[S comparable](ix *mdp.Index[S], b bitset) int {
	n := 0
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			n += ix.Orbit(w<<6 + bits.TrailingZeros64(word))
		}
	}
	return n
}

// CheckAll checks a list of statements against the same model. The
// statements are solved concurrently, at most m.ResolvedWorkers() at a
// time: each solve touches only its own cone, whose levels are mostly
// too small to split across workers, so statements are the unit of
// parallelism. Results and errors are reported in statement order: on an
// error, CheckAll returns the results of the statements before the first
// failing one and that error. Failed statements (Holds == false) are not
// errors.
func CheckAll[S comparable](m *mdp.MDP, ix *mdp.Index[S], sts ...Statement[S]) ([]CheckResult[S], error) {
	out := make([]CheckResult[S], len(sts))
	errs := make([]error, len(sts))
	slots := make(chan struct{}, m.ResolvedWorkers())
	var wg sync.WaitGroup
	for i, st := range sts {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			out[i], errs[i] = CheckStatement(m, ix, st)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out[:i], fmt.Errorf("checking %s: %w", sts[i], err)
		}
	}
	return out, nil
}

// CheckedPremise checks a statement against a model and, on success, wraps
// it as a premise whose note records the measured worst case.
func CheckedPremise[S comparable](m *mdp.MDP, ix *mdp.Index[S], st Statement[S], origin string) (*Proof[S], CheckResult[S], error) {
	r, err := CheckStatement(m, ix, st)
	if err != nil {
		return nil, r, err
	}
	p, err := r.Premise(origin)
	return p, r, err
}

// Premise wraps a checked statement as a premise whose note records the
// measured worst case after origin, or reports that the statement fails.
// Callers that already hold a check's result use it instead of
// CheckedPremise, so the statement is not solved twice.
func (r CheckResult[S]) Premise(origin string) (*Proof[S], error) {
	if !r.Holds {
		return nil, fmt.Errorf("core: statement %s fails: worst-case P = %v at %v", r.Stmt, r.WorstProb, r.WorstState)
	}
	return Premise(r.Stmt, fmt.Sprintf("%s; measured worst-case P = %v", origin, r.WorstProb))
}
