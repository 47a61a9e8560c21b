// Cold-cache interning: what a fresh compiled model pays per new state,
// that racing workers building samplers on first use agree with one
// worker, and that states past the interning cap are not kept alive.
package sim_test

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/dining"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sim"
)

// TestColdCacheWorkersAgree runs the mc-cold job shape — dining n=8
// under the random policy, where nearly every trial interns new states
// and builds samplers on first use — with 8 workers racing on a fresh
// cache, and requires the checkpoint of a 1-worker run on another fresh
// cache. Run it under -race -count=10.
func TestColdCacheWorkersAgree(t *testing.T) {
	const n, trials = 8, 640
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	checkpoint := func(workers int) []byte {
		cm, err := sim.Compile[dining.State](dining.MustNew(n))
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := sim.EstimateReachProbParallel[dining.State](context.Background(), cm, mk, dining.InC, 13, trials,
			opts, sim.ParallelOptions{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if one, eight := checkpoint(1), checkpoint(8); string(one) != string(eight) {
		t.Errorf("8 workers on a fresh cache: checkpoint differs from 1 worker\n 1: %s\n 8: %s", one, eight)
	}
}

// TestNewStateAllocs pins what interning one new dining n=8 state costs
// through Compiled.Moves, the model's own queries included: the entry is
// a fixed few blocks, and the samplers wait for a trial to need them.
func TestNewStateAllocs(t *testing.T) {
	const n, runs = 8, 200
	m := dining.MustNew(n)
	cm, err := sim.Compile[dining.State](m)
	if err != nil {
		t.Fatal(err)
	}
	// Breadth-first from the start, one distinct state for each measured
	// call and for AllocsPerRun's warm-up call.
	states := []dining.State{dining.AllAt(n, dining.F)}
	seen := map[dining.State]bool{states[0]: true}
	for i := 0; len(states) <= runs; i++ {
		for p := 0; p < n; p++ {
			for _, st := range append(m.Moves(states[i], p), m.UserMoves(states[i], p)...) {
				for _, s := range st.Next.Support() {
					if !seen[s] {
						seen[s] = true
						states = append(states, s)
					}
				}
			}
		}
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		cm.Moves(states[next], 0)
		next++
	}); got > 24 {
		t.Errorf("interning a new dining n=%d state: %v allocations, want at most 24", n, got)
	}
}

// counter is a one-process model that counts from 0 up to limit, one
// state per step, and counts the Moves queries it answers.
type counter struct {
	limit   int
	queries *atomic.Int64
}

func (counter) Name() string                      { return "counter" }
func (counter) NumProcs() int                     { return 1 }
func (counter) Start() []int                      { return []int{0} }
func (counter) UserMoves(int, int) []pa.Step[int] { return nil }
func (c counter) Moves(s, _ int) []pa.Step[int] {
	c.queries.Add(1)
	if s >= c.limit {
		return nil
	}
	return []pa.Step[int]{{Action: "inc", Next: prob.Point(s + 1)}}
}

// TestInterningCapBoundsMemory: past the interning cap an entry is the
// asking trial's alone. If it were published in its predecessor's
// successor slot it would stay reachable from the cache, and a second
// identical run would walk those slots without asking the model.
func TestInterningCapBoundsMemory(t *testing.T) {
	const limit, trials = 2000, 8
	m := counter{limit: limit, queries: new(atomic.Int64)}
	cm, err := sim.Compile[int](m)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetMaxStates(cm, 16)
	mk := func() sim.Policy[int] { return sim.Slowest[int]() }
	never := func(int) bool { return false }
	opts := sim.Options[int]{MaxTime: 2 * limit}
	run := func() (string, int64) {
		before := m.queries.Load()
		est, _, err := sim.EstimateReachProbParallel[int](context.Background(), cm, mk, never, 1, trials,
			opts, sim.ParallelOptions{Seed: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return est.String(), m.queries.Load() - before
	}
	first, q1 := run()
	second, q2 := run()
	if first != second {
		t.Errorf("second run estimated %s, first %s", second, first)
	}
	if q1 < limit {
		t.Fatalf("first run asked the model %d times, want at least %d", q1, limit)
	}
	if q2 < limit {
		t.Errorf("second run asked the model %d times (first %d): states past the cap stayed reachable", q2, q1)
	}
}
