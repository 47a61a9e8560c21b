package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prob"
)

func TestWorstCaseCurve(t *testing.T) {
	sc := scriptFixture(t, true) // the 4-state tick chain 0→1→2→3
	from := listSet("A", 0)
	to := listSet("D", 3)
	curve, err := WorstCaseCurve(sc.Model, sc.Index, from, to, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "0", "0", "1", "1", "1"}
	if len(curve) != len(want) {
		t.Fatalf("curve has %d points, want %d", len(curve), len(want))
	}
	for i, pt := range curve {
		if pt.Horizon != i {
			t.Errorf("point %d horizon = %d", i, pt.Horizon)
		}
		if pt.WorstProb.String() != want[i] {
			t.Errorf("curve[%d] = %v, want %s", i, pt.WorstProb, want[i])
		}
	}

	horizon, ok := TightestTime(curve, prob.One())
	if !ok || horizon != 3 {
		t.Errorf("TightestTime = %d, %t; want 3, true", horizon, ok)
	}
	if _, ok := TightestTime(curve[:3], prob.One()); ok {
		t.Error("TightestTime found an unreachable threshold")
	}
}

func TestWorstCaseCurveEmptyFrom(t *testing.T) {
	sc := scriptFixture(t, true)
	empty := listSet("E")
	if _, err := WorstCaseCurve(sc.Model, sc.Index, empty, listSet("D", 3), 2); err == nil {
		t.Error("empty source accepted")
	}
}

func TestWorstExpectedTime(t *testing.T) {
	sc := scriptFixture(t, true) // the 4-state tick chain 0→1→2→3
	to := listSet("D", 3)
	for name, solve := range map[string]func([]bool) ([]float64, error){
		"max": sc.Model.MaxExpectedTicks,
		"min": sc.Model.MinExpectedTicks,
	} {
		worst, at, err := WorstExpectedTime(sc.Index, listSet("AB", 1, 0), to, solve)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if worst != 3 || at != 0 {
			t.Errorf("%s: worst = %v at %d, want 3 at 0", name, worst, at)
		}
	}
	if _, _, err := WorstExpectedTime(sc.Index, listSet("E"), to, sc.Model.MaxExpectedTicks); !errors.Is(err, ErrEmptyFrom) {
		t.Errorf("empty source: err = %v, want ErrEmptyFrom", err)
	}
}

func TestRenderCurve(t *testing.T) {
	curve := []CurvePoint{
		{Horizon: 0, WorstProb: prob.Zero()},
		{Horizon: 1, WorstProb: prob.Half()},
		{Horizon: 2, WorstProb: prob.One()},
	}
	out := RenderCurve(curve, prob.Half())
	if !strings.Contains(out, "first t with P ≥ 1/2") {
		t.Errorf("render missing threshold mark:\n%s", out)
	}
	// Only the first qualifying horizon is marked.
	if strings.Count(out, "first t with") != 1 {
		t.Errorf("threshold marked more than once:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("render has %d lines, want 4", len(lines))
	}
}
