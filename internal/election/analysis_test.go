package election

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/prob"
)

var analysisN3 *Analysis

func getAnalysisN3(t *testing.T) *Analysis {
	t.Helper()
	if analysisN3 == nil {
		a, err := NewAnalysisOpts(3, 1, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		analysisN3 = a
	}
	return analysisN3
}

func TestLevelStatementsHold(t *testing.T) {
	a := getAnalysisN3(t)
	results, err := a.CheckLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (levels 3 and 2)", len(results))
	}
	for _, r := range results {
		t.Logf("%s", r)
		if !r.Holds {
			t.Errorf("level statement fails: %s", r)
		}
	}
	// The round probabilities should be measured exactly: the adversary
	// cannot influence coin outcomes, only interleavings.
	if !results[0].WorstProb.Equal(prob.MustParseRat("3/4")) {
		t.Errorf("level 3 worst-case P = %v, want exactly 3/4", results[0].WorstProb)
	}
	if !results[1].WorstProb.Equal(prob.Half()) {
		t.Errorf("level 2 worst-case P = %v, want exactly 1/2", results[1].WorstProb)
	}
}

// TestLevelsMemoized: CheckLevels solves the level statements once per
// Analysis, and BuildProof builds on those results. Concurrent first
// calls must agree (run under -race), and a caller mutating the slice it
// got back must not change what later calls see.
func TestLevelsMemoized(t *testing.T) {
	a, err := NewAnalysisOpts(4, 1, Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var (
		wg     sync.WaitGroup
		levels [callers][]core.CheckResult[PState]
		proofs [callers]*core.Proof[PState]
		errs   [2 * callers]error
	)
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			levels[i], errs[2*i] = a.CheckLevels()
		}()
		go func() {
			defer wg.Done()
			proofs[i], errs[2*i+1] = a.BuildProof()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	want := proofs[0].Render()
	for i := 0; i < callers; i++ {
		if len(levels[i]) != 3 {
			t.Fatalf("caller %d: %d results, want 3", i, len(levels[i]))
		}
		for j, r := range levels[i] {
			if !r.Holds || !r.WorstProb.Equal(levels[0][j].WorstProb) {
				t.Errorf("caller %d level %d: %s", i, j, r)
			}
		}
		if got := proofs[i].Render(); got != want {
			t.Errorf("caller %d proof differs:\n%s\nvs\n%s", i, got, want)
		}
	}

	mine := levels[0]
	mine[0].Holds = false
	mine[1] = core.CheckResult[PState]{}
	again, err := a.CheckLevels()
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range again {
		if !r.Holds || !r.WorstProb.Equal(levels[1][j].WorstProb) || r.Stmt.String() != levels[1][j].Stmt.String() {
			t.Errorf("after mutating a returned slice, level %d reads %s", j, r)
		}
	}
	if p, err := a.BuildProof(); err != nil || p.Render() != want {
		t.Errorf("after mutating a returned slice, BuildProof = %v", err)
	}
}

func TestBuildProof(t *testing.T) {
	a := getAnalysisN3(t)
	proof, err := a.BuildProof()
	if err != nil {
		t.Fatalf("BuildProof: %v", err)
	}
	stmt := proof.Stmt
	if stmt.From.Name != "Fresh_3" || stmt.To.Name != "Elected" {
		t.Errorf("composed endpoints: %s", stmt)
	}
	if !stmt.Time.Equal(prob.FromInt(4)) {
		t.Errorf("composed time = %v, want 4 (= 2(n-1))", stmt.Time)
	}
	// Π p_k = 3/4 · 1/2 = 3/8.
	if !stmt.Prob.Equal(prob.MustParseRat("3/8")) {
		t.Errorf("composed prob = %v, want 3/8", stmt.Prob)
	}
	rendered := proof.Render()
	for _, want := range []string{"Fresh_3", "Elected", "compose (Thm 3.4)"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered proof missing %q:\n%s", want, rendered)
		}
	}
}

func TestExpectedTimeBound(t *testing.T) {
	a := getAnalysisN3(t)
	bound, err := a.ExpectedTimeBound()
	if err != nil {
		t.Fatal(err)
	}
	// Levels: k=2 gives 2/(1/2) = 4; k=3 gives 2/(3/4) = 8/3.
	want := prob.MustParseRat("20/3")
	if !bound.Equal(want) {
		t.Errorf("expected-time bound = %v, want %v", bound, want)
	}

	worst, err := a.WorstExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst expected election time at n=3, k=1: %.4f (bound %v ≈ %.4f)",
		worst, bound, bound.Float64())
	if worst > bound.Float64() {
		t.Errorf("measured worst expected time %.4f exceeds the derived bound %v", worst, bound)
	}
	if worst <= 0 {
		t.Errorf("worst expected time %.4f not positive", worst)
	}
}

// TestBuildProofN5 scales the second case study: five levels compose into
// Fresh_5 --8, Π p_k--> Elected with every premise checked exactly.
func TestBuildProofN5(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5 election enumeration skipped with -short")
	}
	a, err := NewAnalysisOpts(5, 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := a.BuildProof()
	if err != nil {
		t.Fatal(err)
	}
	if !proof.Stmt.Time.Equal(prob.FromInt(8)) {
		t.Errorf("composed time = %v, want 8", proof.Stmt.Time)
	}
	// Π p_k = 15/16 · 7/8 · 3/4 · 1/2 = 315/1024.
	if !proof.Stmt.Prob.Equal(prob.MustParseRat("315/1024")) {
		t.Errorf("composed prob = %v, want 315/1024", proof.Stmt.Prob)
	}
	bound, err := a.ExpectedTimeBound()
	if err != nil {
		t.Fatal(err)
	}
	worst, err := a.WorstExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	if worst > bound.Float64() {
		t.Errorf("measured worst %.4f exceeds derived bound %v", worst, bound)
	}
}

func TestFreshSetsPartitionRoundBoundaries(t *testing.T) {
	a := getAnalysisN3(t)
	elected := a.Elected()
	fresh2 := a.Fresh(2)
	fresh3 := a.Fresh(3)
	if a.Universe.Count(fresh3) == 0 || a.Universe.Count(fresh2) == 0 {
		t.Error("fresh sets empty in the reachable space")
	}
	if a.Universe.Count(a.Fresh(1)) != 0 {
		t.Error("Fresh_1 reachable: a lone active process should have been crowned")
	}
	if a.Universe.Count(elected) == 0 {
		t.Error("no elected states reachable")
	}
}
