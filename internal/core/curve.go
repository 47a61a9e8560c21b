package core

import (
	"fmt"
	"strings"

	"repro/internal/mdp"
	"repro/internal/prob"
)

// CurvePoint is one point of a worst-case probability curve.
type CurvePoint struct {
	// Horizon is the time bound t.
	Horizon int
	// WorstProb is the exact worst case of P[reach To within t] over
	// adversaries and over From states.
	WorstProb prob.Rat
}

// WorstCaseCurve computes, for every horizon t = 0..maxHorizon, the exact
// worst-case probability of reaching `to` from the worst reachable state
// of `from`. The curve is the quantitative landscape behind a statement
// U --t,p--> U': the statement holds iff the curve at t is at least p.
// Section 7 of the paper asks for lower bounds on the time for progress;
// the curve delivers them — every t where the curve is below p is a
// certified counterexample horizon.
func WorstCaseCurve[S comparable](m *mdp.MDP, ix *mdp.Index[S], from, to Set[S], maxHorizon int) ([]CurvePoint, error) {
	fromExt := from.extent(ix.States())
	if fromExt.count() == 0 {
		return nil, ErrEmptyFrom
	}
	fromMask := fromExt.bools(ix.Len())
	layers, err := m.ReachWithinTicksLayers(to.Mask(ix.States()), maxHorizon, mdp.MinProb)
	if err != nil {
		return nil, err
	}
	curve := make([]CurvePoint, len(layers))
	for h, layer := range layers {
		worst, _ := mdp.OptAt(layer, fromMask, mdp.MinProb)
		curve[h] = CurvePoint{Horizon: h, WorstProb: worst}
	}
	return curve, nil
}

// TightestTime returns the least horizon at which the curve reaches p, or
// ok = false if it never does within the computed range.
func TightestTime(curve []CurvePoint, p prob.Rat) (int, bool) {
	for _, pt := range curve {
		if !pt.WorstProb.Less(p) {
			return pt.Horizon, true
		}
	}
	return 0, false
}

// RenderCurve formats the curve as an aligned two-column table with a
// crude bar chart, marking the first horizon meeting the threshold.
func RenderCurve(curve []CurvePoint, threshold prob.Rat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s  %-12s  %s\n", "t", "worst-case P", "")
	marked := false
	for _, pt := range curve {
		bar := strings.Repeat("█", int(pt.WorstProb.Float64()*40+0.5))
		mark := ""
		if !marked && !pt.WorstProb.Less(threshold) {
			mark = "  ← first t with P ≥ " + threshold.String()
			marked = true
		}
		fmt.Fprintf(&b, "%-4d  %-12s  %s%s\n", pt.Horizon, pt.WorstProb.String(), bar, mark)
	}
	return b.String()
}
