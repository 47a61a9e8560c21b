package dining

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prob"
)

// TestPaperChainHoldsN4 repeats the headline checks at n = 4 (about 205k
// product states; ~40s of exact rational value iteration). Skipped with
// -short.
func TestPaperChainHoldsN4(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4 exact checking takes ~40s; skipped with -short")
	}
	a, err := NewAnalysisOpts(4, 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=4 k=1 product states: %d", a.Index.Len())

	results, err := a.CheckPaperChain()
	if err != nil {
		t.Fatal(err)
	}
	wantMeasured := []string{"1", "1", "7/8", "1/2", "1"}
	for i, r := range results {
		t.Logf("%s", r)
		if !r.Holds {
			t.Errorf("statement fails at n=4: %s", r)
		}
		if r.WorstProb.String() != wantMeasured[i] {
			t.Errorf("%s: measured %v, want %s (recorded in EXPERIMENTS.md)",
				r.Stmt, r.WorstProb, wantMeasured[i])
		}
	}

	direct, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		t.Fatal(err)
	}
	if !direct.WorstProb.Equal(prob.MustParseRat("63/64")) {
		t.Errorf("direct composed worst case = %v, want 63/64", direct.WorstProb)
	}

	proof, err := a.BuildPaperProof()
	if err != nil {
		t.Fatal(err)
	}
	if !proof.Stmt.Prob.Equal(prob.NewRat(1, 8)) {
		t.Errorf("composed probability = %v", proof.Stmt.Prob)
	}
}
