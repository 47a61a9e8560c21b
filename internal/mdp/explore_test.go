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
