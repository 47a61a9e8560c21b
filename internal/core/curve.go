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
//
// It is one mdp.WorstWithinTicks solve: horizon t evaluates only the
// states within maxHorizon−t ticks of `from` (every horizon reads the
// `from` states themselves), and a state already certain to reach `to`
// is not evaluated again.
func WorstCaseCurve[S comparable](m *mdp.MDP, ix *mdp.Index[S], from, to Set[S], maxHorizon int) ([]CurvePoint, error) {
	fromExt := from.extent(ix.States())
	if fromExt.count() == 0 {
		return nil, ErrEmptyFrom
	}
	worst, err := m.WorstWithinTicks(to.Mask(ix.States()), fromExt.bools(ix.Len()), maxHorizon, mdp.MinProb)
	if err != nil {
		return nil, err
	}
	curve := make([]CurvePoint, len(worst))
	for h, w := range worst {
		curve[h] = CurvePoint{Horizon: h, WorstProb: w.Value}
	}
	return curve, nil
}

// WorstExpectedTime solves the expected number of ticks until `to` is
// first visited with solve (an MDP's MaxExpectedTicks for the worst
// adversary, MinExpectedTicks for the best) and returns the largest value
// over the reachable states of `from`, with the first such state in index
// order that attains it: the worst source state's expected time under
// that adversary.
func WorstExpectedTime[S comparable](ix *mdp.Index[S], from, to Set[S], solve func(target []bool) ([]float64, error)) (float64, S, error) {
	var worst S
	fromExt := from.extent(ix.States())
	if fromExt.count() == 0 {
		return 0, worst, ErrEmptyFrom
	}
	values, err := solve(to.Mask(ix.States()))
	if err != nil {
		return 0, worst, err
	}
	at := -1
	for s, v := range values {
		if fromExt.has(s) && (at < 0 || v > values[at]) {
			at = s
		}
	}
	return values[at], ix.State(at), nil
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
