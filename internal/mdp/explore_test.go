package mdp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
)

// TestExploreIndexOverflow: the explorer numbers states, choices and
// branches with int32 ids and offsets, so past the limit it must return
// ErrIndexOverflow rather than wrap. Each automaton has a different
// count as its largest, so each of the three checks is the one that
// fires: at the limit the exploration succeeds, one below it fails
// naming that count.
func TestExploreIndexOverflow(t *testing.T) {
	steps := func(f func(s int) []pa.Step[int]) *pa.Automaton[int] {
		return &pa.Automaton[int]{Start: []int{0}, Steps: f}
	}
	for _, tc := range []struct {
		name                      string
		auto                      *pa.Automaton[int]
		states, choices, branches int
		largest                   string
	}{
		{"chain", steps(func(s int) []pa.Step[int] {
			if s >= 5 {
				return nil
			}
			return []pa.Step[int]{{Action: "next", Next: prob.Point(s + 1)}}
		}), 6, 5, 5, "states"},
		{"self-loops", steps(func(int) []pa.Step[int] {
			out := make([]pa.Step[int], 6)
			for i := range out {
				out[i] = pa.Step[int]{Action: fmt.Sprintf("loop%d", i), Next: prob.Point(0)}
			}
			return out
		}), 1, 6, 6, "choices"},
		{"coins", steps(func(s int) []pa.Step[int] {
			if s != 0 {
				return nil
			}
			out := make([]pa.Step[int], 3)
			for i := range out {
				out[i] = pa.Step[int]{Action: fmt.Sprintf("flip%d", i), Next: prob.MustUniform(0, 1)}
			}
			return out
		}), 2, 3, 6, "branches"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			limit := max(tc.states, tc.choices, tc.branches)
			restore := SetMaxIndexForTest(limit)
			m, _, err := Explore(tc.auto, ExploreOptions{Workers: 1})
			restore()
			if err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
			if m.NumStates != tc.states || m.csr.NumChoices() != tc.choices || len(m.csr.col) != tc.branches {
				t.Fatalf("explored %d states, %d choices, %d branches; want %d, %d, %d",
					m.NumStates, m.csr.NumChoices(), len(m.csr.col), tc.states, tc.choices, tc.branches)
			}

			defer SetMaxIndexForTest(limit - 1)()
			_, _, err = Explore(tc.auto, ExploreOptions{Workers: 1})
			if !errors.Is(err, ErrIndexOverflow) || !strings.Contains(err.Error(), tc.largest) {
				t.Fatalf("limit %d: err = %v, want ErrIndexOverflow naming %s", limit-1, err, tc.largest)
			}
		})
	}
}

// coinsAutomaton has one choice per coin j = 1..128 from state 0, each
// moving to state 1 with probability j/512 and to state 2 otherwise, so
// its branches use 256 distinct probabilities (j/512 and 1 - j/512 never
// coincide for j ≤ 128); extra adds a point-mass choice, a 257th distinct
// probability (1).
func coinsAutomaton(t *testing.T, extra bool) *pa.Automaton[int] {
	t.Helper()
	var steps []pa.Step[int]
	for j := 1; j <= 128; j++ {
		d, err := prob.FlipRat(1, prob.NewRat(int64(j), 512), 2)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, pa.Step[int]{Action: fmt.Sprintf("coin%d", j), Next: d})
	}
	if extra {
		steps = append(steps, pa.Step[int]{Action: "stay", Next: prob.Point(1)})
	}
	return &pa.Automaton[int]{Start: []int{0}, Steps: func(s int) []pa.Step[int] {
		if s != 0 {
			return nil
		}
		return steps
	}}
}

// TestTooManyProbabilities: a branch names its probability by a one-byte
// index into the CSR's table, so an MDP may use 256 distinct branch
// probabilities and the 257th is ErrTooManyProbabilities: from the
// explorer, from FromAutomaton, and from Validate on a hand-built MDP.
// At 256 the last table entries must answer correctly: the worst choice
// for reaching state 2 is the last coin, whose 3/4 is entry 255.
func TestTooManyProbabilities(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*pa.Automaton[int]) (*MDP, error)
	}{
		{"ExplorePacked", func(a *pa.Automaton[int]) (*MDP, error) {
			m, _, err := ExplorePacked(a, func(s int) int64 { return int64(s) }, ExploreOptions{Workers: 1})
			return m, err
		}},
		{"FromAutomaton", func(a *pa.Automaton[int]) (*MDP, error) {
			m, _, err := FromAutomaton(a, 0)
			return m, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build(coinsAutomaton(t, false))
			if err != nil {
				t.Fatalf("256 distinct probabilities: %v", err)
			}
			if n := len(m.CSR().probs.rat); n != maxProbs {
				t.Fatalf("probability table has %d entries, want %d", n, maxProbs)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			v, err := m.ReachWithinTicks(mask(3, 2), 0, MinProb)
			if err != nil {
				t.Fatal(err)
			}
			if want := prob.NewRat(3, 4); !v[0].Equal(want) {
				t.Errorf("min P(reach 2) = %v, want %v", v[0], want)
			}
			if _, err := tc.build(coinsAutomaton(t, true)); !errors.Is(err, ErrTooManyProbabilities) {
				t.Fatalf("257 distinct probabilities: err = %v, want ErrTooManyProbabilities", err)
			}
		})
	}

	t.Run("Validate", func(t *testing.T) {
		hand := func(extra bool) *MDP {
			m := &MDP{NumStates: 3, Choices: make([][]Choice, 3)}
			for j := int64(1); j <= 128; j++ {
				m.Choices[0] = append(m.Choices[0], Choice{Label: "coin", Branches: []Tr{
					{To: 1, P: prob.NewRat(j, 512)}, {To: 2, P: prob.NewRat(512-j, 512)},
				}})
			}
			if extra {
				m.Choices[0] = append(m.Choices[0], moveTo("stay", 1))
			}
			return m
		}
		if err := hand(false).Validate(); err != nil {
			t.Fatalf("256 distinct probabilities: %v", err)
		}
		if err := hand(true).Validate(); !errors.Is(err, ErrTooManyProbabilities) {
			t.Fatalf("257 distinct probabilities: err = %v, want ErrTooManyProbabilities", err)
		}
	})
}
