package dining

// This file mechanizes the appendix of the paper: each of Lemmas A.4–A.13
// becomes a checkable worst-case statement. Lemmas conditioned on
// first(flip_j, d) events run on rigged models (rigged.go); unconditioned
// lemmas run on the plain ring. Every lemma is checked for every pivot
// process i, starting from every reachable configuration matching its
// hypothesis.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
)

// Lemma is one checkable appendix lemma instance.
type Lemma struct {
	// Name identifies the lemma, e.g. "A.4(1)".
	Name string
	// Hypothesis describes the conditioning informally.
	Hypothesis string
	// Rigs are the forced first flips (empty for unconditioned lemmas).
	Rigs func(i, n int) []Rig
	// From is the lemma's source predicate at pivot i.
	From func(s State, i int) bool
	// To is the lemma's target predicate at pivot i.
	To func(s State, i int) bool
	// Time is the claimed bound; Prob the claimed probability.
	Time int
	Prob prob.Rat
}

// pcIn reports X_j ∈ set (ignoring direction).
func pcIn(s State, j int, pcs ...PC) bool {
	pc := s.Local(j).PC
	for _, want := range pcs {
		if pc == want {
			return true
		}
	}
	return false
}

// at reports X_j = (pc, d).
func at(s State, j int, pc PC, d Dir) bool {
	l := s.Local(j)
	return l.PC == pc && l.U == d
}

// hash reports X_j ∈ #d = {W, S, D} pointing in direction d.
func hash(s State, j int, d Dir) bool {
	l := s.Local(j)
	return (l.PC == W || l.PC == S || l.PC == D) && l.U == d
}

// erf reports X_j ∈ {E_R, R, F}.
func erf(s State, j int) bool { return pcIn(s, j, ER, R, F) }

// ert reports X_j ∈ {E_R, R, T} (T as local trying region).
func ert(s State, j int) bool { return pcIn(s, j, ER, R, F, W, S, D, P) }

// AppendixLemmas returns the lemma suite in appendix order.
func AppendixLemmas() []Lemma {
	one := prob.One()
	rigLeft := func(j int) func(i, n int) []Rig {
		return func(i, n int) []Rig { return []Rig{{Proc: mod(i+j, n), Dir: Left}} }
	}
	rigRight := func(j int) func(i, n int) []Rig {
		return func(i, n int) []Rig { return []Rig{{Proc: mod(i+j, n), Dir: Right}} }
	}

	// Common targets.
	pOrS := func(s State, i int) bool {
		return pcIn(s, mod(i-1, s.N()), P) || pcIn(s, i, S)
	}
	pAt := func(offsets ...int) func(State, int) bool {
		return func(s State, i int) bool {
			for _, off := range offsets {
				if pcIn(s, mod(i+off, s.N()), P) {
					return true
				}
			}
			return false
		}
	}

	return []Lemma{
		{
			Name:       "A.4(1)",
			Hypothesis: "X_{i-1} ∈ {E_R,R,F}, X_i = W←, first(flip_{i-1}, left)",
			Rigs:       rigLeft(-1),
			From: func(s State, i int) bool {
				return erf(s, mod(i-1, s.N())) && at(s, i, W, Left)
			},
			To: pOrS, Time: 1, Prob: one,
		},
		{
			Name:       "A.4(2)",
			Hypothesis: "X_{i-1} = D, X_i = W←, first(flip_{i-1}, left)",
			Rigs:       rigLeft(-1),
			From: func(s State, i int) bool {
				return pcIn(s, mod(i-1, s.N()), D) && at(s, i, W, Left)
			},
			To: pOrS, Time: 2, Prob: one,
		},
		{
			Name:       "A.4(3)",
			Hypothesis: "X_{i-1} = S, X_i = W←, first(flip_{i-1}, left)",
			Rigs:       rigLeft(-1),
			From: func(s State, i int) bool {
				return pcIn(s, mod(i-1, s.N()), S) && at(s, i, W, Left)
			},
			To: pOrS, Time: 3, Prob: one,
		},
		{
			Name:       "A.4(4)",
			Hypothesis: "X_{i-1} = W, X_i = W←, first(flip_{i-1}, left)",
			Rigs:       rigLeft(-1),
			From: func(s State, i int) bool {
				return pcIn(s, mod(i-1, s.N()), W) && at(s, i, W, Left)
			},
			To: pOrS, Time: 4, Prob: one,
		},
		{
			Name:       "A.5",
			Hypothesis: "X_{i-1} ∈ {E_R,R,T}, X_i = W←, first(flip_{i-1}, left)",
			Rigs:       rigLeft(-1),
			From: func(s State, i int) bool {
				return ert(s, mod(i-1, s.N())) && at(s, i, W, Left)
			},
			To: pOrS, Time: 4, Prob: one,
		},
		{
			Name:       "A.7a",
			Hypothesis: "X_i = S←, X_{i+1} ∈ {W→,S→}",
			Rigs:       func(int, int) []Rig { return nil },
			From: func(s State, i int) bool {
				j := mod(i+1, s.N())
				return at(s, i, S, Left) && (at(s, j, W, Right) || at(s, j, S, Right))
			},
			To: pAt(0, 1), Time: 1, Prob: one,
		},
		{
			Name:       "A.7b",
			Hypothesis: "X_i ∈ {W←,S←}, X_{i+1} = S→",
			Rigs:       func(int, int) []Rig { return nil },
			From: func(s State, i int) bool {
				j := mod(i+1, s.N())
				return (at(s, i, W, Left) || at(s, i, S, Left)) && at(s, j, S, Right)
			},
			To: pAt(0, 1), Time: 1, Prob: one,
		},
		{
			Name:       "A.8a",
			Hypothesis: "X_i = S←, X_{i+1} ∈ {E_R,R,F,D→}, first(flip_{i+1}, right)",
			Rigs:       rigRight(+1),
			From: func(s State, i int) bool {
				j := mod(i+1, s.N())
				return at(s, i, S, Left) && (erf(s, j) || at(s, j, D, Right))
			},
			To: pAt(0, 1), Time: 1, Prob: one,
		},
		{
			Name:       "A.8b",
			Hypothesis: "X_i ∈ {E_R,R,F,D←}, X_{i+1} = S→, first(flip_i, left)",
			Rigs:       rigLeft(0),
			From: func(s State, i int) bool {
				j := mod(i+1, s.N())
				return (erf(s, i) || at(s, i, D, Left)) && at(s, j, S, Right)
			},
			To: pAt(0, 1), Time: 1, Prob: one,
		},
		{
			Name:       "A.9",
			Hypothesis: "X_{i-1} ∈ {E_R,R,T}, X_i = W←, X_{i+1} ∈ {E_R,R,F,W→,D→}, first(flip_{i-1}, left) ∧ first(flip_{i+1}, right)",
			Rigs: func(i, n int) []Rig {
				return []Rig{{Proc: mod(i-1, n), Dir: Left}, {Proc: mod(i+1, n), Dir: Right}}
			},
			From: func(s State, i int) bool {
				j, k := mod(i-1, s.N()), mod(i+1, s.N())
				return ert(s, j) && at(s, i, W, Left) &&
					(erf(s, k) || at(s, k, W, Right) || at(s, k, D, Right))
			},
			To: pAt(-1, 0, 1), Time: 5, Prob: one,
		},
		{
			Name:       "A.10",
			Hypothesis: "X_i ∈ {E_R,R,F,W←,D←}, X_{i+1} = W→, X_{i+2} ∈ {E_R,R,T}, first(flip_i, left) ∧ first(flip_{i+2}, right)",
			Rigs: func(i, n int) []Rig {
				return []Rig{{Proc: i, Dir: Left}, {Proc: mod(i+2, n), Dir: Right}}
			},
			From: func(s State, i int) bool {
				j, k := mod(i+1, s.N()), mod(i+2, s.N())
				return (erf(s, i) || at(s, i, W, Left) || at(s, i, D, Left)) &&
					at(s, j, W, Right) && ert(s, k)
			},
			To: pAt(0, 1, 2), Time: 5, Prob: one,
		},
		{
			Name:       "A.12",
			Hypothesis: "s ∈ F with X_i = F and (X_{i-1}, X_{i+1}) ≠ (#→, #←)",
			Rigs:       func(int, int) []Rig { return nil },
			From: func(s State, i int) bool {
				if !InF(s) || s.Local(i).PC != F {
					return false
				}
				return !(hash(s, mod(i-1, s.N()), Right) && hash(s, mod(i+1, s.N()), Left))
			},
			To:   func(s State, _ int) bool { return InGP(s) },
			Time: 1, Prob: prob.Half(),
		},
		{
			Name:       "A.13",
			Hypothesis: "s ∈ F with X_i = F and (X_{i-1}, X_{i+1}) = (#→, #←)",
			Rigs:       func(int, int) []Rig { return nil },
			From: func(s State, i int) bool {
				if !InF(s) || s.Local(i).PC != F {
					return false
				}
				return hash(s, mod(i-1, s.N()), Right) && hash(s, mod(i+1, s.N()), Left)
			},
			To:   func(s State, _ int) bool { return InGP(s) },
			Time: 2, Prob: prob.Half(),
		},
	}
}

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// LemmaResult is the check outcome of one lemma at one pivot.
type LemmaResult struct {
	Lemma      Lemma
	Pivot      int
	Holds      bool
	WorstProb  prob.Rat
	FromStates int
	Vacuous    bool // no reachable state matches the hypothesis
}

// String formats the result as one report line.
func (r LemmaResult) String() string {
	switch {
	case r.Vacuous:
		return fmt.Sprintf("VACUOUS %-7s i=%d  (no reachable hypothesis state)", r.Lemma.Name, r.Pivot)
	case r.Holds:
		return fmt.Sprintf("HOLDS   %-7s i=%d  t=%d claimed=%v measured=%v  |From|=%d",
			r.Lemma.Name, r.Pivot, r.Lemma.Time, r.Lemma.Prob, r.WorstProb, r.FromStates)
	default:
		return fmt.Sprintf("FAILS   %-7s i=%d  t=%d claimed=%v measured=%v  |From|=%d",
			r.Lemma.Name, r.Pivot, r.Lemma.Time, r.Lemma.Prob, r.WorstProb, r.FromStates)
	}
}

// reachableBases returns the distinct base states of the n-ring's full
// k-product in breadth-first discovery order.
func reachableBases(n, k int) ([]State, error) {
	model, err := New(n)
	if err != nil {
		return nil, err
	}
	auto, err := fullProduct(model, k)
	if err != nil {
		return nil, err
	}
	states, err := auto.Reachable(0)
	if err != nil {
		return nil, err
	}
	var bases []State
	seen := make(map[State]bool)
	for _, ps := range states {
		if !seen[ps.Base] {
			seen[ps.Base] = true
			bases = append(bases, ps.Base)
		}
	}
	return bases, nil
}

// CheckLemma checks one lemma at one pivot on the n-ring under the
// k-digitization, conditioning via a rigged model started from every
// reachable base state of the unrigged ring.
func CheckLemma(lemma Lemma, i, n, k int, baseStates []State) (LemmaResult, error) {
	res := LemmaResult{Lemma: lemma, Pivot: i}

	// On tiny rings the lemma's distinct neighbours can coincide (e.g.
	// i-1 = i+1 at n = 2), making the conjunction of first(flip, ·)
	// hypotheses degenerate; report the instance as vacuous.
	rigs := lemma.Rigs(i, n)
	seen := make(map[int]bool, len(rigs))
	for _, rig := range rigs {
		p := mod(rig.Proc, n)
		if seen[p] {
			res.Vacuous = true
			return res, nil
		}
		seen[p] = true
	}

	rigged, err := NewRigged(n, rigs...)
	if err != nil {
		return res, err
	}
	rigged.WithStarts(baseStates)

	auto, err := sched.Product[RState](rigged, sched.Config{StepsPerWindow: k})
	if err != nil {
		return res, err
	}
	m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
	if err != nil {
		return res, err
	}

	from := core.NewSet(lemma.Name+"-from", func(ps sched.State[RState]) bool {
		return rigged.PendingAll(ps.Base) && lemma.From(ps.Base.S, i)
	})
	to := core.NewSet(lemma.Name+"-to", func(ps sched.State[RState]) bool {
		return lemma.To(ps.Base.S, i)
	})
	st := core.Statement[sched.State[RState]]{
		From:   from,
		To:     to,
		Time:   prob.FromInt(int64(lemma.Time)),
		Prob:   lemma.Prob,
		Schema: core.UnitTimeSchema(k),
	}
	r, err := core.CheckStatement(m, ix, st)
	if errors.Is(err, core.ErrEmptyFrom) {
		res.Vacuous = true
		return res, nil
	}
	if err != nil {
		return res, err
	}
	res.Holds = r.Holds
	res.WorstProb = r.WorstProb
	res.FromStates = r.FromCount
	return res, nil
}

// CheckAppendix checks the whole lemma suite at every pivot and returns
// the results in lemma-major order. baseStates defaults, when nil, to
// the base states of the unrigged ring's full product (not its
// quotient's representatives), in breadth-first discovery order.
func CheckAppendix(n, k int, baseStates []State) ([]LemmaResult, error) {
	if baseStates == nil {
		var err error
		if baseStates, err = reachableBases(n, k); err != nil {
			return nil, err
		}
	}
	var out []LemmaResult
	for _, lemma := range AppendixLemmas() {
		for i := 0; i < n; i++ {
			r, err := CheckLemma(lemma, i, n, k, baseStates)
			if err != nil {
				return out, fmt.Errorf("%s at i=%d: %w", lemma.Name, i, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
