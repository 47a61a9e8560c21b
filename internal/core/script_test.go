package core

import (
	"strings"
	"testing"

	"repro/internal/mdp"
	"repro/internal/pa"
	"repro/internal/prob"
)

// scriptFixture builds a Script over a 4-state tick chain 0→1→2→3 with
// sets A={0}, B={1}, CC={2,3}, D={3}.
func scriptFixture(t *testing.T, withModel bool) *Script[int] {
	t.Helper()
	reg := map[string]Set[int]{
		"A":  listSet("A", 0),
		"B":  listSet("B", 1),
		"CC": listSet("CC", 2, 3),
		"D":  listSet("D", 3),
	}
	sc := &Script[int]{
		Registry: reg,
		Schema:   testSchema(),
		Universe: NewUniverse([]int{0, 1, 2, 3}),
	}
	if withModel {
		auto := &pa.Automaton[int]{
			Start: []int{0},
			Steps: func(s int) []pa.Step[int] {
				if s >= 3 {
					return nil
				}
				return []pa.Step[int]{{Action: "tick", Next: prob.Point(s + 1)}}
			},
			Duration: func(a string) prob.Rat {
				if a == "tick" {
					return prob.One()
				}
				return prob.Zero()
			},
		}
		m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc.Model = m
		sc.Index = ix
	}
	return sc
}

func TestScriptFullDerivation(t *testing.T) {
	sc := scriptFixture(t, true)
	out, err := sc.Run(`
# The toy chain: A reaches B in one tick, B reaches CC in one tick.
let ab = premise A --1,1--> B : step one
let bc = premise B --1,1--> CC : step two
let ac = compose ab bc
check ac
print ac
`)
	if err != nil {
		t.Fatalf("Run: %v\noutput:\n%s", err, out)
	}
	p, ok := sc.Proof("ac")
	if !ok {
		t.Fatal("proof ac not defined")
	}
	if !p.Stmt.Time.Equal(prob.FromInt(2)) || !p.Stmt.Prob.IsOne() {
		t.Errorf("composed statement = %s", p.Stmt)
	}
	for _, want := range []string{"HOLDS", "A --2,1--> CC", "compose"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptWeakenRelaxSubset(t *testing.T) {
	sc := scriptFixture(t, false)
	_, err := sc.Run(`
let ab = premise A --1,1--> B
let w = weaken ab + D
let r = relax w time=5 prob=1/2
let s = subset D -> CC
`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	w, _ := sc.Proof("w")
	if w.Stmt.From.Name != "A∪D" {
		t.Errorf("weakened from = %q", w.Stmt.From.Name)
	}
	r, _ := sc.Proof("r")
	if !r.Stmt.Time.Equal(prob.FromInt(5)) || !r.Stmt.Prob.Equal(prob.Half()) {
		t.Errorf("relaxed statement = %s", r.Stmt)
	}
	s, _ := sc.Proof("s")
	if s.Rule != RuleSubset {
		t.Errorf("subset rule = %q", s.Rule)
	}
}

func TestScriptCheckPremises(t *testing.T) {
	sc := scriptFixture(t, true)
	sc.CheckPremises = true
	out, err := sc.Run(`let ab = premise A --1,1--> B : checked eagerly`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(out, "HOLDS") {
		t.Errorf("eager check produced no report:\n%s", out)
	}

	// A premise that fails the model check aborts the script.
	sc2 := scriptFixture(t, true)
	sc2.CheckPremises = true
	if _, err := sc2.Run(`let bad = premise A --1,1--> D`); err == nil {
		t.Error("failing premise accepted under CheckPremises")
	}
}

func TestScriptErrors(t *testing.T) {
	tests := []struct {
		name   string
		script string
	}{
		{name: "unknown command", script: "frobnicate x"},
		{name: "let without equals", script: "let x premise A --1,1--> B"},
		{name: "empty identifier", script: "let  = premise A --1,1--> B"},
		{name: "unknown derivation", script: "let x = conjure A"},
		{name: "redefinition", script: "let x = premise A --1,1--> B\nlet x = premise A --1,1--> B"},
		{name: "undefined reference", script: "let y = weaken nope + D"},
		{name: "weaken without plus", script: "let x = premise A --1,1--> B\nlet y = weaken x"},
		{name: "compose single", script: "let x = premise A --1,1--> B\nlet y = compose x"},
		{name: "relax malformed", script: "let x = premise A --1,1--> B\nlet y = relax x t=2"},
		{name: "relax unknown key", script: "let x = premise A --1,1--> B\nlet y = relax x speed=2 prob=1"},
		{name: "subset without arrow", script: "let s = subset A CC"},
		{name: "subset false", script: "let s = subset CC -> D"},
		{name: "print undefined", script: "print ghost"},
		{name: "check undefined", script: "let x = premise A --1,1--> B\ncheck ghost"},
		{name: "bad statement", script: "let x = premise A --> B"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := scriptFixture(t, true)
			if _, err := sc.Run(tt.script); err == nil {
				t.Errorf("script %q accepted", tt.script)
			}
		})
	}
}

func TestScriptCheckWithoutModel(t *testing.T) {
	sc := scriptFixture(t, false)
	if _, err := sc.Run("let x = premise A --1,1--> B\ncheck x"); err == nil {
		t.Error("check accepted without a model")
	}
	sc2 := scriptFixture(t, false)
	sc2.CheckPremises = true
	if _, err := sc2.Run("let x = premise A --1,1--> B"); err == nil {
		t.Error("CheckPremises accepted without a model")
	}
}

func TestScriptCommentsAndBlankLines(t *testing.T) {
	sc := scriptFixture(t, false)
	out, err := sc.Run("\n# just a comment\n\n   \n")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out != "" {
		t.Errorf("output = %q, want empty", out)
	}
}

func TestCheckStatementErrors(t *testing.T) {
	sc := scriptFixture(t, true)
	a, d := listSet("A", 0), listSet("D", 3)

	// Non-integer time.
	st := stmt(a, d, "1/2", "1")
	if _, err := CheckStatement(sc.Model, sc.Index, st); err == nil {
		t.Error("fractional time accepted")
	}

	// Empty source set.
	empty := listSet("E")
	st2 := stmt(empty, d, "1", "1")
	if _, err := CheckStatement(sc.Model, sc.Index, st2); err == nil {
		t.Error("empty source accepted")
	}

	// Invalid bounds.
	st3 := stmt(a, d, "1", "2")
	if _, err := CheckStatement(sc.Model, sc.Index, st3); err == nil {
		t.Error("probability 2 accepted")
	}
}

func TestCheckStatementCounts(t *testing.T) {
	sc := scriptFixture(t, true)
	st := stmt(listSet("A", 0), listSet("CC", 2, 3), "3", "1")
	r, err := CheckStatement(sc.Model, sc.Index, st)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Holds || r.FromCount != 1 || r.ToCount != 2 {
		t.Errorf("result = %+v", r)
	}
	if !strings.Contains(r.String(), "HOLDS") {
		t.Errorf("result string = %q", r.String())
	}

	fail := stmt(listSet("A", 0), listSet("D", 3), "1", "1")
	rf, err := CheckStatement(sc.Model, sc.Index, fail)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Holds {
		t.Error("unreachable-in-time statement holds")
	}
	if !strings.Contains(rf.String(), "FAILS") {
		t.Errorf("result string = %q", rf.String())
	}
}
