package dining

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/prob"
)

// baseStatesN3 returns the distinct base states of the full n=3 k=1
// product (every state, not the quotient's representatives).
func baseStatesN3(t *testing.T) []State {
	t.Helper()
	bases, err := reachableBases(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bases
}

// TestAppendixDefaultBases: with no base states given, CheckAppendix
// starts the rigged models from every base state of the full product,
// not from the quotient's representatives the analysis explores, and
// its results are the ones recorded before the ring was quotiented:
// every lemma holds at every pivot, measured 1, with these |From|.
func TestAppendixDefaultBases(t *testing.T) {
	if testing.Short() {
		t.Skip("36 rigged-model enumerations; skipped with -short")
	}
	// The full product's base states as the explorer numbers them.
	seen := make(map[State]bool)
	var want []State
	for _, ps := range getFullN3(t).Index.States() {
		if !seen[ps.Base] {
			seen[ps.Base] = true
			want = append(want, ps.Base)
		}
	}
	got := baseStatesN3(t)
	if !slices.Equal(got, want) || len(got) != 1331 {
		t.Fatalf("default base states: %d, full product's: %d (or another order), want 1331", len(got), len(want))
	}
	a := getAnalysisN3(t)
	reps := make(map[State]bool)
	for _, ps := range a.Index.States() {
		reps[ps.Base] = true
	}
	if len(reps) >= len(want) {
		t.Fatalf("the quotient has %d distinct base states, the full product %d: expected fewer", len(reps), len(want))
	}

	from := []struct {
		name    string
		t       int
		claimed string
		from    int
	}{
		{"A.4(1)", 1, "1", 380}, {"A.4(2)", 2, "1", 108}, {"A.4(3)", 3, "1", 175}, {"A.4(4)", 4, "1", 142},
		{"A.5", 4, "1", 871}, {"A.7a", 1, "1", 109}, {"A.7b", 1, "1", 109}, {"A.8a", 1, "1", 228},
		{"A.8b", 1, "1", 228}, {"A.9", 5, "1", 307}, {"A.10", 5, "1", 307}, {"A.12", 1, "1/2", 978},
		{"A.13", 2, "1/2", 66},
	}
	var wantLines []string
	for _, l := range from {
		for i := 0; i < 3; i++ {
			wantLines = append(wantLines, fmt.Sprintf("HOLDS   %-7s i=%d  t=%d claimed=%s measured=1  |From|=%d", l.name, i, l.t, l.claimed, l.from))
		}
	}
	results, err := CheckAppendix(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(wantLines) {
		t.Fatalf("%d results, want %d", len(results), len(wantLines))
	}
	for i, r := range results {
		if r.String() != wantLines[i] {
			t.Errorf("result %d = %q, want %q", i, r, wantLines[i])
		}
	}
}

// TestAppendixLemmasHold is the mechanized appendix: every lemma of
// A.4–A.13 must hold at every pivot on the 3-ring.
func TestAppendixLemmasHold(t *testing.T) {
	if testing.Short() {
		t.Skip("36 rigged-model enumerations; skipped with -short")
	}
	results, err := CheckAppendix(3, 1, baseStatesN3(t))
	if err != nil {
		t.Fatal(err)
	}
	wantCount := len(AppendixLemmas()) * 3
	if len(results) != wantCount {
		t.Fatalf("got %d results, want %d", len(results), wantCount)
	}
	for _, r := range results {
		t.Logf("%s", r)
		if r.Vacuous {
			t.Errorf("%s at i=%d is vacuous", r.Lemma.Name, r.Pivot)
			continue
		}
		if !r.Holds {
			t.Errorf("lemma fails: %s", r)
		}
	}
}

func TestRiggedModelForcesFirstFlip(t *testing.T) {
	m, err := NewRigged(3, Rig{Proc: 0, Dir: Left})
	if err != nil {
		t.Fatal(err)
	}
	start := m.StartFrom(AllAt(3, F))
	if !m.PendingAll(start) {
		t.Fatal("rig not pending at start")
	}

	// Process 0's first flip is deterministic left.
	moves := m.Moves(start, 0)
	if len(moves) != 1 || moves[0].Action != "flip_0" {
		t.Fatalf("moves = %v", moves)
	}
	next, ok := moves[0].Next.IsPoint()
	if !ok {
		t.Fatal("rigged flip is probabilistic")
	}
	if got := next.S.Local(0); got.PC != W || got.U != Left {
		t.Errorf("rigged flip lands at %v, want W←", got)
	}
	if next.Pending != 0 {
		t.Errorf("pending mask = %b after the rigged flip", next.Pending)
	}

	// Process 1 is unrigged: fair flip.
	if m.Moves(start, 1)[0].Next.Len() != 2 {
		t.Error("unrigged flip not fair")
	}

	// After the rig fires, process 0 flips fairly again.
	if got := m.Moves(next, 0); len(got) != 1 || got[0].Action != "wait_0" {
		t.Fatalf("post-rig moves = %v", got)
	}
}

func TestRiggedValidation(t *testing.T) {
	if _, err := NewRigged(3, Rig{Proc: 5, Dir: Left}); err == nil {
		t.Error("out-of-range rig accepted")
	}
	if _, err := NewRigged(3, Rig{Proc: 0, Dir: None}); err == nil {
		t.Error("direction-less rig accepted")
	}
	if _, err := NewRigged(3, Rig{Proc: 0, Dir: Left}, Rig{Proc: 0, Dir: Right}); err == nil {
		t.Error("duplicate rig accepted")
	}
	if _, err := NewRigged(1); err == nil {
		t.Error("single-process ring accepted")
	}
}

func TestRiggedUserMovesPreservePending(t *testing.T) {
	m, err := NewRigged(2, Rig{Proc: 0, Dir: Left})
	if err != nil {
		t.Fatal(err)
	}
	start := m.StartFrom(AllAt(2, R))
	tries := m.UserMoves(start, 0)
	if len(tries) != 1 {
		t.Fatalf("user moves = %v", tries)
	}
	next, _ := tries[0].Next.IsPoint()
	if next.Pending != start.Pending {
		t.Error("user move changed the pending mask")
	}
}

func TestLemmaHelpers(t *testing.T) {
	s := mk(t, "W→ S← ER")
	if !pcIn(s, 0, W, S) || pcIn(s, 0, R, F) {
		t.Error("pcIn misclassifies")
	}
	if !at(s, 1, S, Left) || at(s, 1, S, Right) {
		t.Error("at misclassifies")
	}
	if !hash(s, 0, Right) || hash(s, 0, Left) {
		t.Error("hash misclassifies")
	}
	if !erf(s, 2) || erf(s, 0) {
		t.Error("erf misclassifies")
	}
	if !ert(s, 1) || ert(s, 2) == false {
		t.Error("ert misclassifies")
	}
	if mod(-1, 3) != 2 || mod(4, 3) != 1 {
		t.Error("mod misbehaves")
	}
}

func TestLemmaResultString(t *testing.T) {
	lemma := AppendixLemmas()[0]
	holds := LemmaResult{Lemma: lemma, Pivot: 1, Holds: true, WorstProb: prob.One(), FromStates: 7}
	if got := holds.String(); got == "" {
		t.Error("empty render")
	}
	vac := LemmaResult{Lemma: lemma, Vacuous: true}
	if got := vac.String(); got == "" {
		t.Error("empty vacuous render")
	}
	fails := LemmaResult{Lemma: lemma, WorstProb: prob.Zero()}
	if got := fails.String(); got == "" {
		t.Error("empty failure render")
	}
}
