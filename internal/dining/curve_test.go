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
	lines, err := a.WorstWitness(13)
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

// TestExecAgreesWithProductChain cross-validates the two exact engines:
// the event-evaluation engine (exec, tree unfolding with rectangle
// measure) run under a specific deterministic adversary must produce a
// value bracketed by the MDP's min and max over all adversaries, from
// every sampled start state.
func TestExecAgreesWithProductChain(t *testing.T) {
	a := getAnalysisN3(t)
	auto, err := sched.Product[State](a.Model, sched.Config{StepsPerWindow: a.K})
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.FirstEnabled(auto)
	deadline := prob.FromInt(3)
	monitor := events.Reach(sched.LiftPred(InC), deadline)

	toMask := a.Index.Mask(sched.LiftPred(InC))
	vMin, err := a.MDP.ReachWithinTicks(toMask, 3, mdp.MinProb)
	if err != nil {
		t.Fatal(err)
	}
	vMax, err := a.MDP.ReachWithinTicks(toMask, 3, mdp.MaxProb)
	if err != nil {
		t.Fatal(err)
	}

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
		if iv.Lo.Less(vMin[id]) || vMax[id].Less(iv.Lo) {
			t.Errorf("state %v: exec value %v outside MDP bounds [%v, %v]",
				start, iv.Lo, vMin[id], vMax[id])
		}
	}
	if checked == 0 {
		t.Fatal("no start states sampled")
	}
}
