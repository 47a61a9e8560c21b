package dining

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
)

func TestProgressCurve(t *testing.T) {
	a := getAnalysisN3(t)
	curve, err := a.ProgressCurve(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 17 {
		t.Fatalf("curve has %d points", len(curve))
	}
	// Monotone nondecreasing.
	for i := 1; i < len(curve); i++ {
		if curve[i].WorstProb.Less(curve[i-1].WorstProb) {
			t.Errorf("curve not monotone at t=%d: %v < %v", i, curve[i].WorstProb, curve[i-1].WorstProb)
		}
	}
	// The curve at 13 must match the direct check (15/16 at n=3, k=1).
	if !curve[13].WorstProb.Equal(prob.MustParseRat("15/16")) {
		t.Errorf("curve[13] = %v, want 15/16", curve[13].WorstProb)
	}
	// The paper's point (13, 1/8) lies on or below the curve; the
	// tightest horizon for p = 1/8 is 7 in the digitized model.
	tight, ok := core.TightestTime(curve, prob.NewRat(1, 8))
	if !ok || tight != 7 {
		t.Errorf("tightest horizon = %d, %t; want 7, true", tight, ok)
	}
	// Horizons below 7 are certified lower bounds: the worst case there
	// is below 1/8 (in fact zero through t=6).
	if !curve[6].WorstProb.Less(prob.NewRat(1, 8)) {
		t.Errorf("curve[6] = %v, want < 1/8", curve[6].WorstProb)
	}
}

func TestWorstWitness(t *testing.T) {
	a := getAnalysisN3(t)
	r, err := core.CheckStrategy(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		t.Fatal(err)
	}
	lines, err := a.WorstWitness(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 10 {
		t.Fatalf("witness too short: %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "worst-case P = 15/16") {
		t.Errorf("witness header = %q", lines[0])
	}
	// The damning schedule keeps the ring symmetric: every flip lands on
	// the same side, so no flip line may mix directions within a round.
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"flip_", "wait_", "second_", "drop_", "tick"} {
		if !strings.Contains(joined, want) {
			t.Errorf("witness missing %q:\n%s", want, joined)
		}
	}
	// No crit action can appear: the witness avoids C throughout.
	if strings.Contains(joined, "crit") {
		t.Errorf("witness reaches the critical region:\n%s", joined)
	}
}

// TestWorstWitnessNeedsStrategy: the witness walks the strategy its check
// kept and solves nothing itself, so the composed claim is solved once
// per witness. A result from CheckStatement, which keeps no strategy, is
// an error, returned without a solve.
func TestWorstWitnessNeedsStrategy(t *testing.T) {
	a := getAnalysisN3(t)
	r, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy != nil {
		t.Fatal("CheckStatement kept a strategy")
	}
	if lines, err := a.WorstWitness(r); err == nil {
		t.Errorf("witness from a result without a strategy: %q", lines)
	}
	if _, err := a.WorstWitness(core.CheckResult[PState]{}); err == nil {
		t.Error("witness from an empty result accepted")
	}
	// The strategy's optimum is the check's worst state and probability.
	r, err = core.CheckStrategy(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		t.Fatal(err)
	}
	opt := r.Strategy.Optimum()
	if a.Index.State(opt.State) != r.WorstState || !opt.Value.Equal(r.WorstProb) {
		t.Errorf("strategy optimum %v at %v, check %v at %v", opt.Value, a.Index.State(opt.State), r.WorstProb, r.WorstState)
	}
}

// TestExecAgreesWithProductChain cross-validates the two exact engines:
// the event-evaluation engine (exec, tree unfolding with rectangle
// measure) run on the full product under a specific deterministic
// adversary must produce a value bracketed by the MDP's min and max over
// all adversaries, from every sampled start state. The quotient's
// bounds, read at the start state's representative, are the same.
func TestExecAgreesWithProductChain(t *testing.T) {
	a := getFullN3(t)
	auto, err := fullProduct(a.Model, a.K)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.FirstEnabled(auto)
	deadline := prob.FromInt(3)
	monitor := events.Reach(sched.LiftPred(InC), deadline)

	// Both bounds come from strategies solved from every T state, read
	// per state with the whole deadline left.
	bounds := func(a *Analysis) (sMin, sMax *mdp.Strategy) {
		toMask := a.Index.Mask(sched.LiftPred(InC))
		tMask := a.Index.Mask(sched.LiftPred(InT))
		var err error
		if sMin, err = a.MDP.WorstStrategy(toMask, tMask, 3, mdp.MinProb); err != nil {
			t.Fatal(err)
		}
		if sMax, err = a.MDP.WorstStrategy(toMask, tMask, 3, mdp.MaxProb); err != nil {
			t.Fatal(err)
		}
		return sMin, sMax
	}
	sMin, sMax := bounds(a)
	quot := getAnalysisN3(t)
	qMin, qMax := bounds(quot)

	checked := 0
	for id := 0; id < a.Index.Len() && checked < 25; id += 397 {
		start := a.Index.State(id)
		if !InT(start.Base) {
			continue
		}
		checked++
		h := exec.FromState(auto, adv, start)
		iv, err := h.Prob(monitor, exec.EvalConfig{MaxDepth: 80})
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Exact() {
			t.Fatalf("state %v: interval %v not exact", start, iv)
		}
		vMin, okMin := sMin.Value(id, 3)
		vMax, okMax := sMax.Value(id, 3)
		if !okMin || !okMax {
			t.Fatalf("T state %v outside its own strategies' cone", start)
		}
		if iv.Lo.Less(vMin) || vMax.Less(iv.Lo) {
			t.Errorf("state %v: exec value %v outside MDP bounds [%v, %v]",
				start, iv.Lo, vMin, vMax)
		}
		rep, ok := quot.Index.ID(sched.Canon[State](quot.Model, start))
		if !ok {
			t.Fatalf("representative of %v not in the quotient", start)
		}
		qLo, _ := qMin.Value(rep, 3)
		qHi, _ := qMax.Value(rep, 3)
		if !qLo.Equal(vMin) || !qHi.Equal(vMax) {
			t.Errorf("state %v: quotient bounds [%v, %v], full product's [%v, %v]", start, qLo, qHi, vMin, vMax)
		}
	}
	if checked == 0 {
		t.Fatal("no start states sampled")
	}
}
