package dining

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
)

// GeneralAnalysis enumerates a Lehmann–Rabin instance on an arbitrary
// topology for worst-case checking. Only the topology-independent sets
// (T, C, P — defined by local program counters) are exposed; the
// ring-specific G/RT analysis remains on Analysis.
type GeneralAnalysis struct {
	Topo     Topology
	K        int
	Model    *GeneralModel
	MDP      *mdp.MDP
	Index    *mdp.Index[PState]
	Universe *core.Universe[PState]
	Schema   core.SchemaInfo
}

// NewGeneralAnalysis enumerates the product of the topology under the
// k-steps-per-window digitization.
func NewGeneralAnalysis(t Topology, k, limit int) (*GeneralAnalysis, error) {
	model, err := NewGeneral(t)
	if err != nil {
		return nil, err
	}
	auto, err := sched.Product[State](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		return nil, err
	}
	m, ix, err := mdp.FromAutomaton(auto, limit)
	if err != nil {
		return nil, fmt.Errorf("dining: enumerating %s product: %w", t.Name, err)
	}
	return &GeneralAnalysis{
		Topo:     t,
		K:        k,
		Model:    model,
		MDP:      m,
		Index:    ix,
		Universe: core.NewUniverse(ix.States()),
		Schema:   core.UnitTimeSchema(k),
	}, nil
}

// ProgressStatement returns T --time,p--> C over this topology.
func (a *GeneralAnalysis) ProgressStatement(time, p prob.Rat) core.Statement[PState] {
	return core.Statement[PState]{
		From:   core.NewSet("T", sched.LiftPred(InT)),
		To:     core.NewSet("C", sched.LiftPred(InC)),
		Time:   time,
		Prob:   p,
		Schema: a.Schema,
	}
}

// CheckProgress checks T --time,p--> C exactly.
func (a *GeneralAnalysis) CheckProgress(time, p prob.Rat) (core.CheckResult[PState], error) {
	return core.CheckStatement(a.MDP, a.Index, a.ProgressStatement(time, p))
}

// ProgressCurve computes the exact worst-case probability of reaching C
// from the worst T state for every horizon up to maxHorizon.
func (a *GeneralAnalysis) ProgressCurve(maxHorizon int) ([]core.CurvePoint, error) {
	return core.WorstCaseCurve(a.MDP, a.Index,
		core.NewSet("T", sched.LiftPred(InT)),
		core.NewSet("C", sched.LiftPred(InC)),
		maxHorizon)
}

// WorstExpectedTime computes the worst-case expected time from T to C.
func (a *GeneralAnalysis) WorstExpectedTime() (float64, PState, error) {
	target := a.Index.Mask(sched.LiftPred(InC))
	values, err := a.MDP.MaxExpectedTicks(target, mdp.VIConfig{})
	if err != nil {
		return 0, PState{}, err
	}
	worst := -1.0
	var worstState PState
	inT := sched.LiftPred(InT)
	for i := 0; i < a.Index.Len(); i++ {
		s := a.Index.State(i)
		if !inT(s) {
			continue
		}
		if values[i] > worst {
			worst = values[i]
			worstState = s
		}
	}
	if worst < 0 {
		return 0, PState{}, core.ErrEmptyFrom
	}
	return worst, worstState, nil
}
