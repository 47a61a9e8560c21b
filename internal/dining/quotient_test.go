package dining

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prob"
	"repro/internal/sched"
)

// unreducedAnalysis is a's analysis on the full product: the ring with
// its symmetry hidden, every product state its own MDP state.
func unreducedAnalysis(t *testing.T, a *Analysis) *Analysis {
	t.Helper()
	full, err := a.Unreduced(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// sameOrbit requires the quotient's printed state to be the
// representative of the full product's printed state's orbit.
func sameOrbit(t *testing.T, what string, a *Analysis, full, quot PState) {
	t.Helper()
	if c := sched.Canon[State](a.Model, full); c != quot {
		t.Errorf("%s: quotient state %v, full product's %v (representative %v)", what, quot, full, c)
	}
}

// sameCheck requires two checks of one statement to agree: verdict,
// worst case, |From| and |To| equal, worst states in one orbit.
func sameCheck(t *testing.T, a *Analysis, full, quot core.CheckResult[PState]) {
	t.Helper()
	if full.Holds != quot.Holds || !full.WorstProb.Equal(quot.WorstProb) ||
		full.FromCount != quot.FromCount || full.ToCount != quot.ToCount {
		t.Errorf("full product: %s\nquotient:     %s", full, quot)
	}
	sameOrbit(t, full.Stmt.String(), a, full.WorstState, quot.WorstState)
}

// TestQuotientMatchesUnreduced explores the ring both ways, as its
// quotient by rotations and reflections and as the full product, and
// requires every number the reports print to be equal: product counts,
// the five arrows and the direct composed claim (worst case, |From|,
// |To|), every curve point to 20, the qualitative counts, and the worst
// and best expected times bit for bit. A printed worst state may be
// another member of its orbit.
func TestQuotientMatchesUnreduced(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 1}, {3, 1}, {4, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("n=%d,k=%d", tc.n, tc.k), func(t *testing.T) {
			if tc.n == 4 && testing.Short() {
				t.Skip("n=4 explores 206,254 product states unreduced; skipped with -short")
			}
			quot, err := NewAnalysisOpts(tc.n, tc.k, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			full := unreducedAnalysis(t, quot)
			if len(quot.Index.States()) >= len(full.Index.States()) {
				t.Errorf("quotient has %d states, full product %d", len(quot.Index.States()), len(full.Index.States()))
			}
			if quot.Index.Len() != full.Index.Len() {
				t.Errorf("quotient covers %d product states, full product has %d", quot.Index.Len(), full.Index.Len())
			}

			fullChain, err := full.CheckPaperChain()
			if err != nil {
				t.Fatal(err)
			}
			quotChain, err := quot.CheckPaperChain()
			if err != nil {
				t.Fatal(err)
			}
			for i := range fullChain {
				sameCheck(t, quot, fullChain[i], quotChain[i])
			}
			fullDirect, err := core.CheckStatement(full.MDP, full.Index, full.ComposedStatement())
			if err != nil {
				t.Fatal(err)
			}
			quotDirect, err := core.CheckStatement(quot.MDP, quot.Index, quot.ComposedStatement())
			if err != nil {
				t.Fatal(err)
			}
			sameCheck(t, quot, fullDirect, quotDirect)

			fullCurve, err := full.ProgressCurve(20)
			if err != nil {
				t.Fatal(err)
			}
			quotCurve, err := quot.ProgressCurve(20)
			if err != nil {
				t.Fatal(err)
			}
			for h := range fullCurve {
				if !fullCurve[h].WorstProb.Equal(quotCurve[h].WorstProb) {
					t.Errorf("curve at %d: full %v, quotient %v", h, fullCurve[h].WorstProb, quotCurve[h].WorstProb)
				}
			}

			fullTotal, fullSure := full.QualitativeProgress()
			quotTotal, quotSure := quot.QualitativeProgress()
			if fullTotal != quotTotal || fullSure != quotSure {
				t.Errorf("qualitative: full %d/%d, quotient %d/%d", fullSure, fullTotal, quotSure, quotTotal)
			}

			fullWorst, fullAt, err := full.WorstExpectedTime()
			if err != nil {
				t.Fatal(err)
			}
			quotWorst, quotAt, err := quot.WorstExpectedTime()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fullWorst) != math.Float64bits(quotWorst) {
				t.Errorf("worst expected time: full %v (%x), quotient %v (%x)",
					fullWorst, math.Float64bits(fullWorst), quotWorst, math.Float64bits(quotWorst))
			}
			sameOrbit(t, "worst expected time", quot, fullAt, quotAt)
			fullBest, err := full.BestExpectedTime()
			if err != nil {
				t.Fatal(err)
			}
			quotBest, err := quot.BestExpectedTime()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fullBest) != math.Float64bits(quotBest) {
				t.Errorf("best expected time: full %v, quotient %v", fullBest, quotBest)
			}
			t.Logf("%d product states in %d orbits; worst expected time %v", quot.Index.Len(), len(quot.Index.States()), quotWorst)
		})
	}
}

// TestWitnessReplaysInFullProduct walks the composed claim's worst-case
// strategy, solved on the quotient, and replays the printed schedule
// through the full product: it starts at the check's worst state, each
// action is enabled at the state before it, each successor is in that
// step's support with the printed probability, and each step starts
// where the one before ended. The header keeps the direct check's value.
func TestWitnessReplaysInFullProduct(t *testing.T) {
	for _, tc := range []struct {
		k      int
		header string
	}{{1, "15/16"}, {2, "447/512"}} {
		a, err := NewAnalysisOpts(3, tc.k, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.CheckStrategy(a.MDP, a.Index, a.ComposedStatement())
		if err != nil {
			t.Fatal(err)
		}
		if r.WorstProb.String() != tc.header {
			t.Fatalf("k=%d: worst case %v, want %s", tc.k, r.WorstProb, tc.header)
		}
		steps, err := a.witness(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) == 0 {
			t.Fatalf("k=%d: empty witness", tc.k)
		}
		full, err := fullProduct(a.Model, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		at := r.WorstState
		for i, ws := range steps {
			if ws.from != at {
				t.Fatalf("k=%d step %d starts at %v, the walk is at %v", tc.k, i, ws.from, at)
			}
			replayed := false
			for _, step := range full.Steps(ws.from) {
				if step.Action == ws.action && step.Next.P(ws.next).Equal(ws.p) {
					replayed = true
					break
				}
			}
			if !replayed || ws.p.Equal(prob.Zero()) {
				t.Fatalf("k=%d step %d: no step %s from %v reaches %v with probability %v", tc.k, i, ws.action, ws.from, ws.next, ws.p)
			}
			at = ws.next
		}
		lines, err := a.WorstWitness(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := "worst-case P = " + tc.header; len(lines) != len(steps)+1 || !strings.Contains(lines[0], want) {
			t.Errorf("k=%d: witness header %q, want %q over %d steps", tc.k, lines[0], want, len(steps))
		}
	}
}
