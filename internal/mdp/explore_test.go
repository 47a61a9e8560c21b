package mdp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestExploreErrorWaitsForWorkers: when the merge fails while the next
// chunk is still expanding on worker goroutines, Explore returns
// only after every expansion goroutine has, so no Steps call is in
// flight once it returns. Each Steps call sleeps briefly so that an
// explorer that returned early would be caught with calls in flight.
func TestExploreErrorWaitsForWorkers(t *testing.T) {
	defer SetChunkForTest(4, 1)()
	var inFlight atomic.Int32
	tree := &pa.Automaton[int]{Start: []int{1}, Steps: func(s int) []pa.Step[int] {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		time.Sleep(200 * time.Microsecond)
		return []pa.Step[int]{{Action: "split", Next: prob.MustUniform(2*s, 2*s+1)}}
	}}
	for _, workers := range []int{2, 8} {
		for _, opts := range []ExploreOptions{{Limit: 40}, {MemBudget: 4096}} {
			opts.Workers = workers
			_, _, err := Explore(tree, opts)
			if err == nil {
				t.Fatalf("workers=%d %+v: the infinite tree explored without error", workers, opts)
			}
			if n := inFlight.Load(); n != 0 {
				t.Errorf("workers=%d %+v: returned %v with %d Steps calls in flight", workers, opts, err, n)
			}
		}
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
// probabilities and the 257th is ErrTooManyProbabilities. At 256 the
// last table entries must answer correctly: the worst choice for
// reaching state 2 is the last coin, whose 3/4 is entry 255. The subtest
// explores straight into that packed form, one byte per branch probability.
func TestTooManyProbabilities(t *testing.T) {
	t.Run("ExplorePacked", func(t *testing.T) {
		m, _, err := Explore(coinsAutomaton(t, false), ExploreOptions{Workers: 1})
		if err != nil {
			t.Fatalf("256 distinct probabilities: %v", err)
		}
		if n := len(m.CSR().probs.rat); n != maxProbs {
			t.Fatalf("probability table has %d entries, want %d", n, maxProbs)
		}
		v, err := m.WorstAtHorizon(mask(3, 2), mask(3, 0), 0, MinProb)
		if err != nil {
			t.Fatal(err)
		}
		if want := prob.NewRat(3, 4); !v.Value.Equal(want) {
			t.Errorf("min P(reach 2) = %v, want %v", v.Value, want)
		}
		if _, _, err := Explore(coinsAutomaton(t, true), ExploreOptions{Workers: 1}); !errors.Is(err, ErrTooManyProbabilities) {
			t.Fatalf("257 distinct probabilities: err = %v, want ErrTooManyProbabilities", err)
		}
	})
}

// TestExploreLimitCountsStartStates: the state limit counts the start
// states. Three distinct start states with no steps are three states, so
// a limit of 2 fails with pa.ErrLimitExceeded in both builders (the
// oracle enumerates with pa.Reachable), and a limit of 3 admits them.
// A repeated start state is one state.
func TestExploreLimitCountsStartStates(t *testing.T) {
	auto := &pa.Automaton[int]{Start: []int{4, 7, 4, 9}, Steps: func(int) []pa.Step[int] { return nil }}
	if _, _, err := Explore(auto, ExploreOptions{Limit: 2}); !errors.Is(err, pa.ErrLimitExceeded) {
		t.Errorf("Explore, limit 2: err = %v, want pa.ErrLimitExceeded", err)
	}
	if _, _, err := fromAutomaton(auto, 2); !errors.Is(err, pa.ErrLimitExceeded) {
		t.Errorf("oracle, limit 2: err = %v, want pa.ErrLimitExceeded", err)
	}
	m, ix, err := Explore(auto, ExploreOptions{Limit: 3})
	if err != nil {
		t.Fatalf("Explore, limit 3: %v", err)
	}
	if m.NumStates != 3 || !slices.Equal(ix.States(), []int{4, 7, 9}) {
		t.Errorf("Explore, limit 3: %d states %v, want [4 7 9]", m.NumStates, ix.States())
	}
	if _, _, err := fromAutomaton(auto, 3); err != nil {
		t.Errorf("oracle, limit 3: %v", err)
	}
}

// fuzzAutomaton decodes data into a small automaton over states 0..11:
// one to three start states, up to three steps per state, each with one
// to three outcomes over the probabilities {1, 1/2, 1/4, 3/4}, and
// actions of duration 0 or 1. The steps are tabulated up front, so Steps
// is a pure read and safe for concurrent use.
func fuzzAutomaton(data []byte) *pa.Automaton[int] {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	q, h := prob.NewRat(1, 4), prob.Half()
	dists := [][]prob.Rat{{prob.One()}, {h, h}, {q, prob.NewRat(3, 4)}, {q, q, h}}
	n := 1 + pick(12)
	actions := []string{"a", "b", "c", "d"}
	tick := make(map[string]bool, len(actions))
	for _, a := range actions {
		tick[a] = pick(2) == 1
	}
	start := make([]int, 1+pick(3))
	for i := range start {
		start[i] = pick(n)
	}
	table := make([][]pa.Step[int], n)
	for s := range table {
		for range pick(4) {
			ps := dists[pick(len(dists))]
			outs := make([]prob.Outcome[int], len(ps))
			for i, p := range ps {
				outs[i] = prob.Outcome[int]{Value: pick(n), Prob: p}
			}
			table[s] = append(table[s], pa.Step[int]{
				Action: actions[pick(len(actions))],
				Next:   prob.MustDist(outs...),
			})
		}
	}
	return &pa.Automaton[int]{
		Name:  "fuzz",
		Start: start,
		Steps: func(s int) []pa.Step[int] { return table[s] },
		Duration: func(a string) prob.Rat {
			if tick[a] {
				return prob.One()
			}
			return prob.Zero()
		},
	}
}

// FuzzExploreMatchesDense: on any small automaton, Explore at one, two
// and eight workers must number states as the oracle does, in
// pa.Reachable's order, and build the oracle's CSR. The chunk size is
// lowered so the queue is cut after every state or every third one, and
// the fan-out threshold to one, so each chunk of three expands on
// goroutines while the one before it merges. Both builders must also
// agree on the state limit: at the state count both succeed, and one
// below it both fail with pa.ErrLimitExceeded.
func FuzzExploreMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 0, 2, 0, 1, 2, 1, 3, 0, 2, 0, 1, 2, 3})
	f.Add([]byte{11, 0, 1, 1, 0, 2, 5, 0, 3, 3, 1, 4, 2, 7, 9, 1, 3, 0, 2, 2, 6, 8, 10, 3, 1, 1, 11})
	f.Add([]byte{2, 1, 1, 1, 1, 2, 0, 1, 3, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		auto := fuzzAutomaton(data)
		dense, dIx, err := fromAutomaton(auto, 0)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, chunk := range []int{1, 3} {
			restore := SetChunkForTest(chunk, 1)
			for _, workers := range []int{1, 2, 8} {
				m, ix, err := Explore(auto, ExploreOptions{Workers: workers})
				if err != nil {
					t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
				}
				if !slices.Equal(ix.States(), dIx.States()) {
					t.Fatalf("chunk=%d workers=%d: explored order %v, oracle %v", chunk, workers, ix.States(), dIx.States())
				}
				if err := equalCSR(dense.CSR(), m.CSR()); err != nil {
					t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
				}
			}
			restore()
		}

		states := len(dIx.States())
		if _, _, err := fromAutomaton(auto, states); err != nil {
			t.Fatalf("oracle at limit %d: %v", states, err)
		}
		if _, _, err := Explore(auto, ExploreOptions{Workers: 1, Limit: states}); err != nil {
			t.Fatalf("Explore at limit %d: %v", states, err)
		}
		if states < 2 {
			return
		}
		_, _, dErr := fromAutomaton(auto, states-1)
		_, _, eErr := Explore(auto, ExploreOptions{Workers: 1, Limit: states - 1})
		if !errors.Is(dErr, pa.ErrLimitExceeded) || !errors.Is(eErr, pa.ErrLimitExceeded) {
			t.Fatalf("limit %d of %d states: oracle %v, Explore %v; want pa.ErrLimitExceeded", states-1, states, dErr, eErr)
		}
	})
}
