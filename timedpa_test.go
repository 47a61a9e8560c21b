package timedpa_test

import (
	"strings"
	"testing"

	timedpa "repro"
)

// The facade test mirrors the quickstart example: a coin automaton,
// checked and composed through the public API only.
type qstate string

func quickAutomaton() *timedpa.Automaton[qstate] {
	return &timedpa.Automaton[qstate]{
		Name:  "coin",
		Start: []qstate{"flipping"},
		Steps: func(s qstate) []timedpa.Step[qstate] {
			switch s {
			case "flipping":
				return []timedpa.Step[qstate]{{
					Action: "flip",
					Next: timedpa.MustDist(
						timedpa.Outcome[qstate]{Value: "win", Prob: timedpa.Half()},
						timedpa.Outcome[qstate]{Value: "flipping", Prob: timedpa.Half()},
					),
				}}
			case "win":
				return []timedpa.Step[qstate]{{Action: "announce", Next: timedpa.PointDist(qstate("done"))}}
			default:
				return nil
			}
		},
		Duration: func(string) timedpa.Rat { return timedpa.One() },
	}
}

func TestFacadeCheckAndCompose(t *testing.T) {
	coin := quickAutomaton()
	m, ix, err := timedpa.EnumerateMDP(coin, 0)
	if err != nil {
		t.Fatal(err)
	}

	schema := timedpa.UnitTimeSchema(1)
	flipping := timedpa.NewStateSet("Flipping", func(s qstate) bool { return s == "flipping" })
	win := timedpa.NewStateSet("Win", func(s qstate) bool { return s == "win" })
	done := timedpa.NewStateSet("Done", func(s qstate) bool { return s == "done" })

	claim1 := timedpa.Statement[qstate]{
		From: flipping, To: win,
		Time: timedpa.NewRat(3, 1), Prob: timedpa.MustParseRat("7/8"),
		Schema: schema,
	}
	r1, err := timedpa.CheckStatement(m, ix, claim1)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Holds || !r1.WorstProb.Equal(timedpa.MustParseRat("7/8")) {
		t.Errorf("claim1 result: %s", r1)
	}

	claim2 := timedpa.Statement[qstate]{
		From: win, To: done,
		Time: timedpa.One(), Prob: timedpa.One(),
		Schema: schema,
	}
	states, err := coin.Reachable(0)
	if err != nil {
		t.Fatal(err)
	}
	u := timedpa.NewUniverse(states)
	p1, err := timedpa.Premise(claim1, "checked")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := timedpa.Premise(claim2, "checked")
	if err != nil {
		t.Fatal(err)
	}
	composed, err := timedpa.ComposeChain(u, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := composed.Stmt.String(); !strings.Contains(got, "Flipping --4,7/8--> Done") {
		t.Errorf("composed = %q", got)
	}

	// Weaken keeps bounds.
	w, err := timedpa.Weaken(p1, done)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Stmt.Prob.Equal(timedpa.MustParseRat("7/8")) {
		t.Errorf("weaken changed probability: %s", w.Stmt)
	}

	// A bad composition is rejected through the facade too.
	if _, err := timedpa.Compose(u, p2, p1); err == nil {
		t.Error("mismatched composition accepted")
	}
}

func TestFacadeBuildProduct(t *testing.T) {
	a, err := timedpa.NewDiningAnalysis(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Index.Len() == 0 {
		t.Error("empty dining analysis")
	}
	e, err := timedpa.NewElectionAnalysis(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Index.Len() == 0 {
		t.Error("empty election analysis")
	}
}

func TestFacadeEvents(t *testing.T) {
	coin := quickAutomaton()
	adv := firstEnabledFacade(coin)

	reach := timedpa.ReachEvent(func(s qstate) bool { return s == "done" }, timedpa.NewRat(4, 1))
	iv, err := timedpa.EventProb(coin, adv, qstate("flipping"), reach, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Exact() || !iv.Lo.Equal(timedpa.MustParseRat("7/8")) {
		t.Errorf("P[done within 4] = %v, want exactly 7/8", iv)
	}

	first := timedpa.FirstEvent("flip", func(s qstate) bool { return s == "win" })
	ivF, err := timedpa.EventProb(coin, adv, qstate("flipping"), first, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !ivF.Exact() || !ivF.Lo.Equal(timedpa.Half()) {
		t.Errorf("P[first flip wins] = %v, want 1/2", ivF)
	}

	both := timedpa.AndEvents(first, reach)
	ivBoth, err := timedpa.EventProb(coin, adv, qstate("flipping"), both, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ivBoth.Lo.Sign() <= 0 {
		t.Errorf("P[and] = %v, want positive", ivBoth)
	}

	neither := timedpa.NotEvent(timedpa.OrEvents(first, reach))
	ivN, err := timedpa.EventProb(coin, adv, qstate("flipping"), neither, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !ivN.Hi.Less(timedpa.Half()) {
		t.Errorf("P[neither] = %v, want below 1/2", ivN)
	}

	if _, err := timedpa.NextEvent(
		timedpa.EventPair[qstate]{Action: "flip"},
		timedpa.EventPair[qstate]{Action: "flip"},
	); err == nil {
		t.Error("duplicate NextEvent actions accepted")
	}
}

// firstEnabledFacade is a minimal deterministic adversary for facade
// tests.
func firstEnabledFacade(m *timedpa.Automaton[qstate]) timedpa.Adversary[qstate] {
	return timedpa.FirstEnabledAdversary(m)
}

func TestFacadeSetOps(t *testing.T) {
	a := timedpa.NewStateSet("A", func(s int) bool { return s == 1 })
	b := timedpa.NewStateSet("B", func(s int) bool { return s == 2 })
	u := timedpa.UnionSets(a, b)
	if u.Name != "A∪B" || !u.Contains(1) || !u.Contains(2) || u.Contains(3) {
		t.Errorf("union misbehaves: %q", u.Name)
	}
	d, err := timedpa.UniformDist(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !d.P(2).Equal(timedpa.NewRat(1, 4)) {
		t.Errorf("uniform P = %v", d.P(2))
	}
	if _, err := timedpa.NewDist(timedpa.Outcome[int]{Value: 1, Prob: timedpa.Half()}); err == nil {
		t.Error("invalid distribution accepted")
	}
	if _, err := timedpa.ParseRat("nope"); err == nil {
		t.Error("bad rational accepted")
	}
	if z := timedpa.Zero(); !z.IsZero() {
		t.Error("Zero is not zero")
	}
}

// TestFacadeEnumerateMDPOneGoroutine pins EnumerateMDP's promise that an
// automaton's Steps need not be safe for concurrent use: this one writes
// an unsynchronized map on every call, and its second breadth-first
// level (4096 states) is wide enough that a parallel exploration would
// fan out across goroutines, which -race (or the runtime's map check)
// reports.
func TestFacadeEnumerateMDPOneGoroutine(t *testing.T) {
	const width = 1 << 12
	wide := make([]int, width)
	for i := range wide {
		wide[i] = i + 1
	}
	fanOut, err := timedpa.UniformDist(wide...)
	if err != nil {
		t.Fatal(err)
	}
	visited := make(map[int]bool)
	auto := &timedpa.Automaton[int]{
		Name:  "fan-out",
		Start: []int{0},
		Steps: func(s int) []timedpa.Step[int] {
			visited[s] = true
			if s != 0 {
				return nil
			}
			return []timedpa.Step[int]{{Action: "spread", Next: fanOut}}
		},
	}
	m, ix, err := timedpa.EnumerateMDP(auto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates != width+1 || ix.Len() != width+1 || len(visited) != width+1 {
		t.Fatalf("%d states, %d indexed, %d visited; want %d each", m.NumStates, ix.Len(), len(visited), width+1)
	}
}
