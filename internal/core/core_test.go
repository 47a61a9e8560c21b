package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prob"
)

// The tests use a tiny integer state space 0..9 with sets defined by
// membership lists.
func listSet(name string, members ...int) Set[int] {
	in := make(map[int]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	return NewSet(name, func(s int) bool { return in[s] })
}

func testUniverse() *Universe[int] {
	states := make([]int, 10)
	for i := range states {
		states[i] = i
	}
	return NewUniverse(states)
}

func testSchema() SchemaInfo { return SchemaInfo{Name: "test", ExecutionClosed: true} }

func mustPremise(t *testing.T, st Statement[int]) *Proof[int] {
	t.Helper()
	p, err := Premise(st, "test premise")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func stmt(from, to Set[int], time, pr string) Statement[int] {
	return Statement[int]{
		From:   from,
		To:     to,
		Time:   prob.MustParseRat(time),
		Prob:   prob.MustParseRat(pr),
		Schema: testSchema(),
	}
}

func TestSetOperations(t *testing.T) {
	a := listSet("A", 1, 2)
	b := listSet("B", 2, 3)
	u := Union(a, b)
	if u.Name != "A∪B" {
		t.Errorf("union name = %q, want A∪B", u.Name)
	}
	for _, s := range []int{1, 2, 3} {
		if !u.Contains(s) {
			t.Errorf("union missing %d", s)
		}
	}
	if u.Contains(4) {
		t.Error("union contains 4")
	}
	empty := Set[int]{Name: "E"}
	if empty.Contains(1) {
		t.Error("nil-pred set contains 1")
	}
}

func TestUniverseRelations(t *testing.T) {
	u := testUniverse()
	a := listSet("A", 1, 2)
	ab := listSet("AB", 1, 2, 3)
	if !u.Subset(a, ab) {
		t.Error("A ⊆ AB not recognized")
	}
	if u.Subset(ab, a) {
		t.Error("AB ⊆ A wrongly accepted")
	}
	if !u.Equal(a, listSet("A'", 2, 1)) {
		t.Error("equal sets not recognized")
	}
	if u.Count(ab) != 3 {
		t.Errorf("Count = %d, want 3", u.Count(ab))
	}
	w, ok := u.Witness(ab, a)
	if !ok || w != 3 {
		t.Errorf("Witness = %d, %t; want 3, true", w, ok)
	}
	if _, ok := u.Witness(a, ab); ok {
		t.Error("witness found for a true subset")
	}
}

// TestNewUniverseSharesStates: a universe keeps the caller's state list
// rather than copying it, so building one over an analysis's explored
// states allocates the Universe alone.
func TestNewUniverseSharesStates(t *testing.T) {
	states := make([]int, 10_000)
	for i := range states {
		states[i] = i
	}
	var u *Universe[int]
	if allocs := testing.AllocsPerRun(100, func() { u = NewUniverse(states) }); allocs != 1 {
		t.Errorf("NewUniverse on %d states: %v allocs, want 1", len(states), allocs)
	}
	if u.Len() != len(states) || u.Count(listSet("last", len(states)-1)) != 1 {
		t.Errorf("universe over %d states: Len %d", len(states), u.Len())
	}
}

func TestStatementValidate(t *testing.T) {
	a, b := listSet("A", 1), listSet("B", 2)
	if err := stmt(a, b, "3", "1/2").Validate(); err != nil {
		t.Errorf("valid statement rejected: %v", err)
	}
	if err := stmt(a, b, "-1", "1/2").Validate(); err == nil {
		t.Error("negative time accepted")
	}
	if err := stmt(a, b, "1", "3/2").Validate(); err == nil {
		t.Error("probability above one accepted")
	}
}

func TestStatementString(t *testing.T) {
	got := stmt(listSet("T"), listSet("C"), "13", "1/8").String()
	if want := "T --13,1/8--> C  [test]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestWeaken(t *testing.T) {
	a, b, c := listSet("A", 1), listSet("B", 2), listSet("C", 3)
	p := mustPremise(t, stmt(a, b, "2", "1/2"))
	w, err := Weaken(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if w.Stmt.From.Name != "A∪C" || w.Stmt.To.Name != "B∪C" {
		t.Errorf("weakened statement = %s", w.Stmt)
	}
	if !w.Stmt.Time.Equal(prob.FromInt(2)) || !w.Stmt.Prob.Equal(prob.Half()) {
		t.Errorf("weaken changed bounds: %s", w.Stmt)
	}
	if _, err := Weaken[int](nil, c); !errors.Is(err, ErrNilProof) {
		t.Errorf("Weaken(nil) err = %v", err)
	}
}

func TestComposeHappyPath(t *testing.T) {
	u := testUniverse()
	a, b, c := listSet("A", 1), listSet("B", 2), listSet("C", 3)
	p1 := mustPremise(t, stmt(a, b, "2", "1/2"))
	p2 := mustPremise(t, stmt(b, c, "3", "1/4"))
	p, err := Compose(u, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stmt.Time.Equal(prob.FromInt(5)) {
		t.Errorf("composed time = %v, want 5", p.Stmt.Time)
	}
	if !p.Stmt.Prob.Equal(prob.NewRat(1, 8)) {
		t.Errorf("composed prob = %v, want 1/8", p.Stmt.Prob)
	}
	if p.Stmt.From.Name != "A" || p.Stmt.To.Name != "C" {
		t.Errorf("composed endpoints: %s", p.Stmt)
	}
}

func TestComposeSubsetSideCondition(t *testing.T) {
	u := testUniverse()
	a := listSet("A", 1)
	b := listSet("B", 2)
	bc := listSet("BC", 2, 3)
	d := listSet("D", 4)

	// Chaining through a superset is allowed.
	p1 := mustPremise(t, stmt(a, b, "1", "1"))
	p2 := mustPremise(t, stmt(bc, d, "1", "1"))
	if _, err := Compose(u, p1, p2); err != nil {
		t.Errorf("compose through superset failed: %v", err)
	}

	// A genuine gap is rejected.
	p3 := mustPremise(t, stmt(a, bc, "1", "1"))
	p4 := mustPremise(t, stmt(b, d, "1", "1"))
	if _, err := Compose(u, p3, p4); !errors.Is(err, ErrNotChained) {
		t.Errorf("err = %v, want ErrNotChained", err)
	}
}

func TestComposeSchemaConditions(t *testing.T) {
	u := testUniverse()
	a, b, c := listSet("A", 1), listSet("B", 2), listSet("C", 3)

	other := stmt(b, c, "1", "1")
	other.Schema = SchemaInfo{Name: "other", ExecutionClosed: true}
	p1 := mustPremise(t, stmt(a, b, "1", "1"))
	p2 := mustPremise(t, other)
	if _, err := Compose(u, p1, p2); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("err = %v, want ErrSchemaMismatch", err)
	}

	unclosed := stmt(a, b, "1", "1")
	unclosed.Schema = SchemaInfo{Name: "unclosed"}
	follow := stmt(b, c, "1", "1")
	follow.Schema = unclosed.Schema
	p3 := mustPremise(t, unclosed)
	p4 := mustPremise(t, follow)
	if _, err := Compose(u, p3, p4); !errors.Is(err, ErrNotExecClosed) {
		t.Errorf("err = %v, want ErrNotExecClosed", err)
	}
}

func TestComposeChain(t *testing.T) {
	u := testUniverse()
	sets := []Set[int]{listSet("S0", 0), listSet("S1", 1), listSet("S2", 2), listSet("S3", 3)}
	var ps []*Proof[int]
	for i := 0; i < 3; i++ {
		ps = append(ps, mustPremise(t, stmt(sets[i], sets[i+1], "1", "1/2")))
	}
	p, err := ComposeChain(u, ps...)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stmt.Time.Equal(prob.FromInt(3)) || !p.Stmt.Prob.Equal(prob.NewRat(1, 8)) {
		t.Errorf("chain bounds = %v, %v; want 3, 1/8", p.Stmt.Time, p.Stmt.Prob)
	}
	if got := len(p.Premises()); got != 3 {
		t.Errorf("chain has %d premises, want 3", got)
	}
	if _, err := ComposeChain[int](u); !errors.Is(err, ErrNilProof) {
		t.Errorf("empty chain err = %v", err)
	}
}

func TestRelax(t *testing.T) {
	a, b := listSet("A", 1), listSet("B", 2)
	p := mustPremise(t, stmt(a, b, "2", "1/2"))
	r, err := Relax(p, prob.FromInt(5), prob.NewRat(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stmt.Time.Equal(prob.FromInt(5)) || !r.Stmt.Prob.Equal(prob.NewRat(1, 4)) {
		t.Errorf("relaxed bounds = %v, %v", r.Stmt.Time, r.Stmt.Prob)
	}
	if _, err := Relax(p, prob.FromInt(1), prob.NewRat(1, 4)); !errors.Is(err, ErrNotWeaker) {
		t.Errorf("tighter time accepted: %v", err)
	}
	if _, err := Relax(p, prob.FromInt(3), prob.NewRat(3, 4)); !errors.Is(err, ErrNotWeaker) {
		t.Errorf("larger probability accepted: %v", err)
	}
}

func TestSubsetProofAndRename(t *testing.T) {
	u := testUniverse()
	a := listSet("A", 1)
	ab := listSet("AB", 1, 2)
	p, err := SubsetProof(u, a, ab, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stmt.Time.IsZero() || !p.Stmt.Prob.IsOne() {
		t.Errorf("subset statement bounds = %v, %v; want 0, 1", p.Stmt.Time, p.Stmt.Prob)
	}
	if _, err := SubsetProof(u, ab, a, testSchema()); !errors.Is(err, ErrNotSubset) {
		t.Errorf("err = %v, want ErrNotSubset", err)
	}

	// Rename the target to an extensionally equal set.
	alias := listSet("A∪A", 1, 2)
	r, err := RenameTo(u, p, alias)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stmt.To.Name != "A∪A" {
		t.Errorf("renamed target = %q", r.Stmt.To.Name)
	}
	if _, err := RenameTo(u, p, a); !errors.Is(err, ErrNotEqual) {
		t.Errorf("unequal rename accepted: %v", err)
	}
	r2, err := RenameFrom(u, p, listSet("A'", 1))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stmt.From.Name != "A'" {
		t.Errorf("renamed source = %q", r2.Stmt.From.Name)
	}
	if _, err := RenameFrom(u, p, ab); !errors.Is(err, ErrNotEqual) {
		t.Errorf("unequal source rename accepted: %v", err)
	}
}

func TestRender(t *testing.T) {
	u := testUniverse()
	a, b, c := listSet("A", 1), listSet("B", 2), listSet("C", 3)
	p1 := mustPremise(t, stmt(a, b, "1", "1/2"))
	p2 := mustPremise(t, stmt(b, c, "2", "1/2"))
	p, err := Compose(u, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Render()
	for _, want := range []string{"A --3,1/4--> C", "├─", "└─", "premise — test premise"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered proof missing %q:\n%s", want, out)
		}
	}
}

func TestParseStatement(t *testing.T) {
	reg := map[string]Set[int]{
		"T":  listSet("T", 1),
		"RT": listSet("RT", 2),
		"C":  listSet("C", 3),
	}
	tests := []struct {
		line    string
		want    string
		wantErr bool
	}{
		{line: "T --13,1/8--> C", want: "T --13,1/8--> C  [test]"},
		{line: "T --2,1--> RT∪C", want: "RT∪C"},
		{line: "T --2,1--> RT+C", want: "RT∪C"},
		{line: "  T  --  2 , 1  -->  C  ", want: "T --2,1--> C  [test]"},
		{line: "T --> C", wantErr: true},
		{line: "T --x,1--> C", wantErr: true},
		{line: "T --1,y--> C", wantErr: true},
		{line: "T --1--> C", wantErr: true},
		{line: "X --1,1--> C", wantErr: true},
		{line: "T --1,1--> X", wantErr: true},
		{line: "T --1,3/2--> C", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.line, func(t *testing.T) {
			st, err := ParseStatement(reg, tt.line, testSchema())
			if tt.wantErr {
				if err == nil {
					t.Fatalf("parsed to %s, want error", st)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseStatement: %v", err)
			}
			if !strings.Contains(st.String(), tt.want) {
				t.Errorf("parsed %q, want it to contain %q", st.String(), tt.want)
			}
		})
	}
}

func TestParseSetExprErrors(t *testing.T) {
	reg := map[string]Set[int]{"A": listSet("A", 1)}
	if _, err := ParseSetExpr(reg, ""); err == nil {
		t.Error("empty expression accepted")
	}
	if _, err := ParseSetExpr(reg, "A+B"); err == nil {
		t.Error("unknown set accepted")
	} else if !strings.Contains(err.Error(), "known: A") {
		t.Errorf("error %q does not list known sets", err)
	}
}

func TestRetryLoop(t *testing.T) {
	paper := RetryLoop{Phases: []Phase{
		{Name: "RT→F∪G∪P", Time: prob.FromInt(3), Prob: prob.One()},
		{Name: "F→G∪P", Time: prob.FromInt(2), Prob: prob.Half()},
		{Name: "G→P", Time: prob.FromInt(5), Prob: prob.NewRat(1, 4)},
	}}
	e, err := paper.ExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equal(prob.FromInt(60)) {
		t.Errorf("E = %v, want 60", e)
	}
	if got := paper.SuccessProb(); !got.Equal(prob.NewRat(1, 8)) {
		t.Errorf("success prob = %v, want 1/8", got)
	}
	if got := paper.PassTime(); !got.Equal(prob.FromInt(10)) {
		t.Errorf("pass time = %v, want 10", got)
	}
	total, err := paper.ExpectedTimeBound(prob.FromInt(2), prob.One())
	if err != nil {
		t.Fatal(err)
	}
	if !total.Equal(prob.FromInt(63)) {
		t.Errorf("total = %v, want 63", total)
	}
}

func TestRetryLoopEdgeCases(t *testing.T) {
	if _, err := (RetryLoop{}).ExpectedTime(); !errors.Is(err, ErrNoPhases) {
		t.Errorf("empty loop err = %v", err)
	}
	never := RetryLoop{Phases: []Phase{{Time: prob.One(), Prob: prob.Zero()}}}
	if _, err := never.ExpectedTime(); !errors.Is(err, ErrZeroSuccess) {
		t.Errorf("zero-success err = %v", err)
	}
	bad := RetryLoop{Phases: []Phase{{Time: prob.NewRat(-1, 1), Prob: prob.One()}}}
	if _, err := bad.ExpectedTime(); err == nil {
		t.Error("negative time accepted")
	}
	sure := RetryLoop{Phases: []Phase{{Time: prob.FromInt(7), Prob: prob.One()}}}
	e, err := sure.ExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equal(prob.FromInt(7)) {
		t.Errorf("deterministic loop E = %v, want 7", e)
	}
}

func TestRetryLoopSingleCoin(t *testing.T) {
	// One phase of time 1 succeeding with probability 1/2: expected time
	// of a fair geometric, 2.
	coin := RetryLoop{Phases: []Phase{{Time: prob.One(), Prob: prob.Half()}}}
	e, err := coin.ExpectedTime()
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equal(prob.FromInt(2)) {
		t.Errorf("E = %v, want 2", e)
	}
}

func TestPhasesFromStatements(t *testing.T) {
	a, b, c := listSet("A", 1), listSet("B", 2), listSet("C", 3)
	phases := PhasesFromStatements(stmt(a, b, "3", "1"), stmt(b, c, "2", "1/2"))
	if len(phases) != 2 {
		t.Fatalf("got %d phases", len(phases))
	}
	if phases[0].Name != "A→B" || phases[1].Name != "B→C" {
		t.Errorf("phase names = %q, %q", phases[0].Name, phases[1].Name)
	}
	if !phases[1].Prob.Equal(prob.Half()) {
		t.Errorf("phase prob = %v", phases[1].Prob)
	}
}

func TestUnitTimeSchema(t *testing.T) {
	s := UnitTimeSchema(2)
	if s.Name != "Unit-Time(k=2)" || !s.ExecutionClosed {
		t.Errorf("UnitTimeSchema = %+v", s)
	}
}
