package election

// This file states and composes the arrow statements of the election
// protocol in the proof calculus of package core, mirroring what
// internal/dining does for the paper's own case study.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PState is a scheduler-product state of the election protocol.
type PState = sched.State[State]

// Analysis is an enumerated election instance ready for checking.
type Analysis struct {
	N, K     int
	Model    *Model
	MDP      *mdp.MDP
	Index    *mdp.Index[PState]
	Universe *core.Universe[PState]
	Schema   core.SchemaInfo

	// The level statements' check, run once: CheckLevels and BuildProof
	// both read it.
	levelsOnce sync.Once
	levels     []core.CheckResult[PState]
	levelsErr  error
}

// Opts configures the exploration of the product space: its state
// limit, its worker count (which the solvers inherit) and its memory
// budget.
type Opts = mdp.ExploreOptions

// NewAnalysisOpts explores the n-process product under the
// k-steps-per-window digitization with the on-the-fly CSR explorer: the
// model is compiled so exploration shares the Monte Carlo engine's
// sharded transition cache, product states are interned by their packed
// fingerprints, and every solver runs opts.Workers wide. State numbering
// is pa.Reachable's breadth-first order, so every analysis result is the
// same for any opts.Workers.
func NewAnalysisOpts(n, k int, opts Opts) (*Analysis, error) {
	model, err := New(n)
	if err != nil {
		return nil, err
	}
	compiled, err := sim.Compile[State](model)
	if err != nil {
		return nil, err
	}
	auto, err := sched.Product[State](compiled, sched.Config{StepsPerWindow: k})
	if err != nil {
		return nil, err
	}
	// *Model implements sched.Packer (pack.go), so the packer exists.
	pack, _ := sched.ProductPacker[State](model)
	m, ix, err := mdp.ExplorePacked(auto, pack, opts)
	if err != nil {
		return nil, fmt.Errorf("election: exploring product: %w", err)
	}
	return newAnalysis(n, k, model, m, ix), nil
}

func newAnalysis(n, k int, model *Model, m *mdp.MDP, ix *mdp.Index[PState]) *Analysis {
	return &Analysis{
		N:        n,
		K:        k,
		Model:    model,
		MDP:      m,
		Index:    ix,
		Universe: core.NewUniverse(ix.States()),
		Schema:   core.UnitTimeSchema(k),
	}
}

// Elected is the target set: a leader exists.
func (a *Analysis) Elected() core.Set[PState] {
	return core.NewSet("Elected", sched.LiftPred(State.HasLeader))
}

// Fresh returns the set Fresh_k: exactly k processes active, no leader, no
// coins on the table (a round boundary).
func (a *Analysis) Fresh(k int) core.Set[PState] {
	return core.NewSet(fmt.Sprintf("Fresh_%d", k), sched.LiftPred(func(s State) bool {
		return s.IsFresh() && s.ActiveCount() == k
	}))
}

// RoundSuccessProb returns p_k = 1 - 2^(1-k): the probability that a round
// with k >= 2 active processes strictly reduces the active set (including
// electing a leader) — failure is all-heads or all-tails.
func RoundSuccessProb(k int) prob.Rat {
	return prob.One().Sub(prob.NewRat(2, 1<<uint(k)))
}

// LevelStatement returns Fresh_k --2, p_k--> Elected ∪ Fresh_{k-1} ∪ ... ∪
// Fresh_1 for k >= 2.
func (a *Analysis) LevelStatement(k int) core.Statement[PState] {
	sets := []core.Set[PState]{a.Elected()}
	for j := k - 1; j >= 1; j-- {
		sets = append(sets, a.Fresh(j))
	}
	return core.Statement[PState]{
		From:   a.Fresh(k),
		To:     core.Union(sets...),
		Time:   prob.FromInt(2),
		Prob:   RoundSuccessProb(k),
		Schema: a.Schema,
	}
}

// LevelStatements returns the chain for k = n down to 2.
func (a *Analysis) LevelStatements() []core.Statement[PState] {
	out := make([]core.Statement[PState], 0, a.N-1)
	for k := a.N; k >= 2; k-- {
		out = append(out, a.LevelStatement(k))
	}
	return out
}

// CheckLevels checks every level statement against the enumerated model
// and returns the results in LevelStatements order (on an error, those
// checked before it). The check runs once per Analysis; every call
// returns its own copy of the results.
func (a *Analysis) CheckLevels() ([]core.CheckResult[PState], error) {
	a.levelsOnce.Do(func() {
		a.levels, a.levelsErr = core.CheckAll(a.MDP, a.Index, a.LevelStatements()...)
	})
	return slices.Clone(a.levels), a.levelsErr
}

// BuildProof composes the level statements, checked by CheckLevels (so
// they are solved once whichever of the two runs first) and
// Prop 3.2-weakened so the chain connects, into
//
//	Fresh_n --2(n-1), Π p_k--> Elected.
func (a *Analysis) BuildProof() (*core.Proof[PState], error) {
	results, checkErr := a.CheckLevels()
	elected := a.Elected()

	// down_k = Elected ∪ Fresh_k ∪ ... ∪ Fresh_1.
	down := func(k int) core.Set[PState] {
		sets := []core.Set[PState]{elected}
		for j := k; j >= 1; j-- {
			sets = append(sets, a.Fresh(j))
		}
		return core.Union(sets...)
	}

	var chain []*core.Proof[PState]
	for i, r := range results {
		k := a.N - i
		premise, err := r.Premise(fmt.Sprintf("round rule at %d active processes", k))
		if err != nil {
			return nil, err
		}
		step := premise
		if k < a.N {
			// Adjoin the already-passed levels so the chain connects:
			// From becomes down_k, To stays extensionally down_{k-1}.
			step, err = core.Weaken(premise, down(k-1))
			if err != nil {
				return nil, err
			}
			step, err = core.RenameFrom(a.Universe, step, down(k))
			if err != nil {
				return nil, err
			}
			step, err = core.RenameTo(a.Universe, step, down(k-1))
			if err != nil {
				return nil, err
			}
		}
		chain = append(chain, step)
	}
	if checkErr != nil {
		return nil, checkErr
	}
	composed, err := core.ComposeChain(a.Universe, chain...)
	if err != nil {
		return nil, err
	}
	// down_1 = Elected over the reachable universe: a lone active process
	// at a round boundary is unreachable from a fresh start with n >= 2
	// (a round that eliminates everyone else crowns the survivor).
	return core.RenameTo(a.Universe, composed, elected)
}

// ExpectedTimeBound bounds the expected election time from Fresh_n by
// summing the per-level retry loops: Σ_{k=2..n} 2/p_k.
func (a *Analysis) ExpectedTimeBound() (prob.Rat, error) {
	total := prob.Zero()
	for k := 2; k <= a.N; k++ {
		loop := core.RetryLoop{Phases: []core.Phase{{
			Name: fmt.Sprintf("level %d", k),
			Time: prob.FromInt(2),
			Prob: RoundSuccessProb(k),
		}}}
		e, err := loop.ExpectedTime()
		if err != nil {
			return prob.Rat{}, err
		}
		total = total.Add(e)
	}
	return total, nil
}

// WorstExpectedTime computes the measured counterpart: the supremum over
// digitized adversaries of the expected time to elect a leader from the
// fresh start.
func (a *Analysis) WorstExpectedTime() (float64, error) {
	values, err := a.MDP.MaxExpectedTicks(a.Elected().Mask(a.Index.States()))
	if err != nil {
		return 0, err
	}
	fresh, err := FreshStart(a.N)
	if err != nil {
		return 0, err
	}
	worst := -1.0
	for i := 0; i < a.Index.Len(); i++ {
		ps := a.Index.State(i)
		if ps.Base != fresh {
			continue
		}
		if values[i] > worst {
			worst = values[i]
		}
	}
	if worst < 0 {
		return 0, core.ErrEmptyFrom
	}
	return worst, nil
}
