package dining

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/prob"
	"repro/internal/sched"
)

// analysisN3 is shared by the tests in this package; building it
// enumerates the n=3, k=1 ring's quotient once. fullN3 is the same
// analysis on the full product (Unreduced), for the tests that visit
// every product state.
var analysisN3, fullN3 *Analysis

func getAnalysisN3(t *testing.T) *Analysis {
	t.Helper()
	if analysisN3 == nil {
		a, err := NewAnalysisOpts(3, 1, Opts{})
		if err != nil {
			t.Fatalf("NewAnalysisOpts: %v", err)
		}
		analysisN3 = a
	}
	return analysisN3
}

func getFullN3(t *testing.T) *Analysis {
	t.Helper()
	if fullN3 == nil {
		fullN3 = unreducedAnalysis(t, getAnalysisN3(t))
	}
	return fullN3
}

func TestPaperChainHoldsN3(t *testing.T) {
	a := getAnalysisN3(t)
	results, err := a.CheckPaperChain()
	if err != nil {
		t.Fatalf("CheckPaperChain: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	for _, r := range results {
		t.Logf("%s", r)
		if !r.Holds {
			t.Errorf("statement fails in the digitized model: %s", r)
		}
	}
}

func TestDeterministicArrowsAreTight(t *testing.T) {
	a := getAnalysisN3(t)
	results, err := a.CheckPaperChain()
	if err != nil {
		t.Fatal(err)
	}
	// The three probability-1 arrows must be measured at exactly 1.
	for _, i := range []int{0, 1, 4} {
		if !results[i].WorstProb.IsOne() {
			t.Errorf("%s: worst-case P = %v, want exactly 1", results[i].Stmt, results[i].WorstProb)
		}
	}
	// The probabilistic arrows must respect their bounds.
	if results[2].WorstProb.Less(prob.Half()) {
		t.Errorf("F arrow: worst-case P = %v < 1/2", results[2].WorstProb)
	}
	if results[3].WorstProb.Less(prob.NewRat(1, 4)) {
		t.Errorf("G arrow: worst-case P = %v < 1/4", results[3].WorstProb)
	}
}

func TestBuildPaperProof(t *testing.T) {
	a := getAnalysisN3(t)
	proof, err := a.BuildPaperProof()
	if err != nil {
		t.Fatalf("BuildPaperProof: %v", err)
	}
	st := proof.Stmt
	if st.From.Name != "T" || st.To.Name != "C" {
		t.Errorf("composed statement relates %s to %s, want T to C", st.From.Name, st.To.Name)
	}
	if !st.Time.Equal(prob.FromInt(13)) {
		t.Errorf("composed time = %v, want 13", st.Time)
	}
	if !st.Prob.Equal(prob.NewRat(1, 8)) {
		t.Errorf("composed probability = %v, want 1/8", st.Prob)
	}
	if got := len(proof.Premises()); got != 5 {
		t.Errorf("proof has %d premises, want 5", got)
	}
	rendered := proof.Render()
	for _, want := range []string{"T --13,1/8--> C", "compose (Thm 3.4)", "Proposition A.11", "weaken (Prop 3.2)"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered proof missing %q:\n%s", want, rendered)
		}
	}
}

// TestPaperChainMemoized: CheckPaperChain solves the five arrows once
// per Analysis, and BuildPaperProof builds on those results. Concurrent
// first calls must agree (run under -race), and a caller mutating the
// slice it got back must not change what later calls see.
func TestPaperChainMemoized(t *testing.T) {
	a, err := NewAnalysisOpts(3, 1, Opts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var (
		wg     sync.WaitGroup
		chains [callers][]core.CheckResult[PState]
		proofs [callers]*core.Proof[PState]
		errs   [2 * callers]error
	)
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			chains[i], errs[2*i] = a.CheckPaperChain()
		}()
		go func() {
			defer wg.Done()
			proofs[i], errs[2*i+1] = a.BuildPaperProof()
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
		if len(chains[i]) != 5 {
			t.Fatalf("caller %d: %d results, want 5", i, len(chains[i]))
		}
		for j, r := range chains[i] {
			if !r.Holds || !r.WorstProb.Equal(chains[0][j].WorstProb) {
				t.Errorf("caller %d arrow %d: %s", i, j, r)
			}
		}
		if got := proofs[i].Render(); got != want {
			t.Errorf("caller %d proof differs:\n%s\nvs\n%s", i, got, want)
		}
	}

	mine := chains[0]
	mine[0].Holds = false
	mine[1] = core.CheckResult[PState]{}
	again, err := a.CheckPaperChain()
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range again {
		if !r.Holds || !r.WorstProb.Equal(chains[1][j].WorstProb) || r.Stmt.String() != chains[1][j].Stmt.String() {
			t.Errorf("after mutating a returned slice, arrow %d reads %s", j, r)
		}
	}
	if p, err := a.BuildPaperProof(); err != nil || p.Render() != want {
		t.Errorf("after mutating a returned slice, BuildPaperProof = %v", err)
	}
}

func TestComposedStatementHoldsDirectly(t *testing.T) {
	a := getAnalysisN3(t)
	r, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		t.Fatalf("CheckStatement: %v", err)
	}
	t.Logf("direct check: %s", r)
	if !r.Holds {
		t.Errorf("T --13,1/8--> C fails directly: %s", r)
	}
	// The direct model-checked worst case should be at least as good as
	// the composed bound (Theorem 3.4 is sound but lossy).
	if r.WorstProb.Less(prob.NewRat(1, 8)) {
		t.Errorf("direct worst-case %v below composed bound 1/8", r.WorstProb)
	}
}

func TestExpectedTimeRecurrence(t *testing.T) {
	a := getAnalysisN3(t)
	loop := a.RetryLoop()
	e, err := loop.ExpectedTime()
	if err != nil {
		t.Fatalf("ExpectedTime: %v", err)
	}
	if !e.Equal(prob.FromInt(60)) {
		t.Errorf("E[loop] = %v, want exactly 60 (Section 6.2)", e)
	}
	total, err := a.ExpectedTimeBound()
	if err != nil {
		t.Fatalf("ExpectedTimeBound: %v", err)
	}
	if !total.Equal(prob.FromInt(63)) {
		t.Errorf("expected-time bound = %v, want exactly 63 (Section 6.2)", total)
	}
}

func TestWorstExpectedTimeUnderBound(t *testing.T) {
	a := getAnalysisN3(t)
	worst, state, err := a.WorstExpectedTime()
	if err != nil {
		t.Fatalf("WorstExpectedTime: %v", err)
	}
	t.Logf("worst expected time to C at n=3, k=1: %.4f at %v", worst, state)
	if worst > 63 {
		t.Errorf("measured worst expected time %.4f exceeds the paper bound 63", worst)
	}
	if worst <= 0 {
		t.Errorf("measured worst expected time %.4f not positive", worst)
	}
}

func TestBestExpectedTimeBelowWorst(t *testing.T) {
	a := getAnalysisN3(t)
	best, err := a.BestExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	worst, _, err := a.WorstExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("expected-time spread at n=3, k=1: best %.4f, worst %.4f", best, worst)
	if best <= 0 || best > worst {
		t.Errorf("best %.4f outside (0, worst=%.4f]", best, worst)
	}
}

func TestQualitativeProgressBaseline(t *testing.T) {
	a := getAnalysisN3(t)
	total, almostSure := a.QualitativeProgress()
	if total == 0 {
		t.Fatal("no T states in the reachable space")
	}
	if total != almostSure {
		t.Errorf("qualitative progress: %d/%d T-states reach C almost surely; want all", almostSure, total)
	}
}

func TestSetRegistryAndStatements(t *testing.T) {
	a := getAnalysisN3(t)
	sets := a.Sets()
	for _, name := range []string{"T", "C", "RT", "F", "G", "P"} {
		if _, ok := sets[name]; !ok {
			t.Errorf("registry missing set %q", name)
		}
	}
	stmts := a.PaperStatements()
	if len(stmts) != len(PaperStatementOrigins()) {
		t.Errorf("statements and origins misaligned: %d vs %d", len(stmts), len(PaperStatementOrigins()))
	}
	if got := a.ComposedStatement().String(); !strings.Contains(got, "T --13,1/8--> C") {
		t.Errorf("composed statement renders as %q", got)
	}
}

// TestSetDefinitions pins the Section 6.2 set definitions on hand-built
// states.
func TestSetDefinitions(t *testing.T) {
	tests := []struct {
		spec              string
		t, c, rt, f, g, p bool
	}{
		{spec: "R R R"},
		{spec: "F R R", t: true, rt: true, f: true},
		{spec: "C W← R", t: true, c: true},
		{spec: "P R R", t: true, rt: true, p: true},
		// W← with right neighbour at F: committed, second resource (right)
		// not potentially controlled: good.
		{spec: "W← F R", t: true, rt: true, f: true, g: true},
		// W← with right neighbour pointing left (#←): not good via that
		// pair; and W← of process 1 has right neighbour R: good.
		{spec: "W← W← R", t: true, rt: true, g: true},
		// S→ with left neighbour S←: both committed toward each other;
		// process 0's second resource is held by... S← (proc 1) holds its
		// left = Res_0 = process 0's right... wait: S→ of process 0 holds
		// Res_0 already. Pick a clean non-good state instead:
		// W→ (wants Res_0 first) with left neighbour D→ (potentially
		// controls Res_2, process 0's second resource): not good; process
		// 2 at D→ is not committed.
		{spec: "W→ R D→", t: true, rt: true},
		// Exit states break RT.
		{spec: "F EF R", t: true},
		{spec: "F ES← R", t: true},
		// ER does not break RT.
		{spec: "F ER R", t: true, rt: true, f: true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			s := mk(t, tt.spec)
			if got := InT(s); got != tt.t {
				t.Errorf("InT = %t, want %t", got, tt.t)
			}
			if got := InC(s); got != tt.c {
				t.Errorf("InC = %t, want %t", got, tt.c)
			}
			if got := InRT(s); got != tt.rt {
				t.Errorf("InRT = %t, want %t", got, tt.rt)
			}
			if got := InF(s); got != tt.f {
				t.Errorf("InF = %t, want %t", got, tt.f)
			}
			if got := InG(s); got != tt.g {
				t.Errorf("InG = %t, want %t", got, tt.g)
			}
			if got := InP(s); got != tt.p {
				t.Errorf("InP = %t, want %t", got, tt.p)
			}
		})
	}
}

// TestGoodProcessMatchesPaperDefinition spot-checks IsGood against the
// displayed definition of G for every reachable base state at n=3 by
// re-evaluating the raw formula.
func TestGoodProcessMatchesPaperDefinition(t *testing.T) {
	raw := func(s State, i int) bool {
		l, lm, lp := s.Local(i), s.Local(i-1), s.Local(i+1)
		inSet := func(x Local, d Dir) bool {
			return x.PC == ER || x.PC == R || x.PC == F ||
				((x.PC == W || x.PC == S || x.PC == D) && x.U == d)
		}
		leftCase := (l.PC == W || l.PC == S) && l.U == Left && inSet(lp, Right)
		rightCase := (l.PC == W || l.PC == S) && l.U == Right && inSet(lm, Left)
		return leftCase || rightCase
	}
	for _, s := range baseStatesN3(t) {
		for i := 0; i < s.N(); i++ {
			if IsGood(s, i) != raw(s, i) {
				t.Fatalf("IsGood(%v, %d) = %t disagrees with the paper formula", s, i, IsGood(s, i))
			}
		}
	}
}

// TestProductStateSpaceSizes records the enumeration sizes used in
// EXPERIMENTS.md: the universe holds the quotient's 1,672 orbit
// representatives, and the index counts the 9,637 product states they
// stand for.
func TestProductStateSpaceSizes(t *testing.T) {
	a := getAnalysisN3(t)
	if got := len(a.Index.States()); got != 1672 || a.Universe.Len() != got {
		t.Errorf("universe %d, index %d orbits; want 1672 each", a.Universe.Len(), got)
	}
	if a.Index.Len() != 9637 {
		t.Errorf("index covers %d product states, want 9637", a.Index.Len())
	}
	t.Logf("n=3 k=1 product states: %d in %d orbits", a.Index.Len(), len(a.Index.States()))
}

// TestLiftPredAgreement verifies that lifted predicates see only the base
// state.
func TestLiftPredAgreement(t *testing.T) {
	s := mk(t, "P R R")
	lifted := sched.LiftPred(InP)
	if !lifted(sched.State[State]{Base: s, Owes: 3, Left: 17}) {
		t.Error("lifted predicate ignored a P base state")
	}
}
