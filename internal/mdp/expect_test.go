package mdp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/prob"
)

// picker returns a source of choices in [0, n) read from data, one byte
// per choice; an exhausted input reads as zeros.
func picker(data []byte) func(n int) int {
	return func(n int) int {
		if n <= 0 || len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// TestSettleSweeps pins the settle pass on a hand-built MDP: along a
// tick chain into the target F grows by one per tick, a non-tick edge
// adds nothing (it reads this sweep's value), and a row on a tick
// self-loop, or leading into one, never settles. Under a Jacobi plan
// every edge reads the previous sweep, so the non-tick edge adds one.
func TestSettleSweeps(t *testing.T) {
	m := hand([][]Choice{
		nil,                      // 0: the target
		{tickTo("t", 0)},         // 1: F = 1
		{tickTo("t", 1)},         // 2: F = 2
		{tickTo("t", 2)},         // 3: F = 3
		{moveTo("m", 3)},         // 4: F = 3, or 4 under Jacobi
		{tickCoin("flip", 0, 5)}, // 5: tick self-loop, live
		{tickTo("t", 5)},         // 6: reaches the loop, live
	})
	target := mask(7, 0)
	_, skip := m.pinned(target, true)
	for _, tc := range []struct {
		jacobi bool
		want   []int32
		maxF   int32
	}{
		{false, []int32{0, 1, 2, 3, 3, 0, 0}, 3},
		{true, []int32{0, 1, 2, 3, 4, 0, 0}, 4},
	} {
		_, _, pending, _ := m.CSR().rowShapes(skip)
		settle, maxF := m.CSR().settleSweeps(skip, pending, tc.jacobi)
		if !slices.Equal(settle, tc.want) || maxF != tc.maxF {
			t.Errorf("jacobi=%t: settle %v max %d, want %v max %d", tc.jacobi, settle, maxF, tc.want, tc.maxF)
		}
	}

	// The program sweeps the two live rows to the end, the four settled
	// ones until sweep max F + 1, and answers as the reference loop does.
	p := m.compileSweeps(skip, true)
	live, settled := 0, 0
	for _, g := range p.groups {
		live += int(g.live - g.lo)
		settled += int(g.hi - g.live)
	}
	if live != 2 || settled != 4 || p.retire != 5 {
		t.Errorf("program: %d live, %d settled, retire at sweep %d; want 2, 4, 5", live, settled, p.retire)
	}
	got, err := m.MaxExpectedTicks(target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := expectedTicksOracle(m, target, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTicks(t, got, want)
	if got[4] != 3 || math.Abs(got[5]-2) > 1e-9 || math.Abs(got[6]-3) > 1e-9 {
		t.Errorf("E = %v, want E(4) = 3, E(5) ≈ 2, E(6) ≈ 3", got)
	}
}

// TestSweepProgramGroupsTileLevels pins the sweep-order numbering of
// the compiled program: the groups follow one another without a gap,
// each within one level of the plan and the levels ascending, so they
// tile the updated rows in level order and a sweep of them in order
// writes every zero-duration successor before its reader; the pinned
// rows follow in state order; and every slot reads the program index of
// its branch's target (or the sentinel n).
func TestSweepProgramGroupsTileLevels(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, target := buildTickMDP(rng.Intn, dyadicDists, seed%2 == 0)
		c := m.CSR()
		plan := c.sweepPlan()
		level := make([]int, c.n)
		lo := int32(0)
		for l, hi := range plan.levels {
			for _, s := range plan.order[lo:hi] {
				level[s] = l
			}
			lo = hi
		}
		for _, maximize := range []bool{true, false} {
			_, skip := m.pinned(target, maximize)
			p := m.compileSweeps(skip, maximize)
			next, last := int32(0), 0 // the first program index no group writes yet; the last group's level
			for gi, g := range p.groups {
				if g.lo != next {
					t.Fatalf("seed %d: group %d writes from %d, the group before it ends at %d", seed, gi, g.lo, next)
				}
				next = g.hi
				l := level[p.rows[g.lo]]
				for _, s := range p.rows[g.lo:g.hi] {
					if level[s] != l || l < last {
						t.Fatalf("seed %d: group %d holds state %d of level %d, after a group of level %d", seed, gi, s, level[s], last)
					}
				}
				last = l
			}
			var pinned []int32
			for s, pin := range skip {
				if pin {
					pinned = append(pinned, int32(s))
				}
			}
			if int(next)+len(pinned) != c.n || !slices.Equal(p.rows[next:], pinned) {
				t.Fatalf("seed %d: groups write 0..%d, pinned rows %v; want the %d updated rows, then %v", seed, next, p.rows[next:], c.n-len(pinned), pinned)
			}
			for _, g := range p.groups {
				slot, w := g.slot, int((g.nonTick+g.tick)*g.width)
				for i := g.lo; i < g.hi; i++ {
					var got []int32
					for _, col := range p.col[slot : slot+w] {
						if col != int32(c.n) {
							got = append(got, p.rows[col])
						}
					}
					slot += w
					lo, hi := c.stateBranches(p.rows[i])
					want := slices.Clone(c.col[lo:hi])
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d: row %d (state %d) reads states %v, its branches go to %v", seed, i, p.rows[i], got, want)
					}
				}
			}
		}
	}
}

// requireSameTicks fails unless two expected-tick vectors are
// bit-identical.
func requireSameTicks(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d values, reference %d", len(got), len(want))
	}
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Fatalf("state %d: %v, reference %v (not bit-identical)", s, got[s], want[s])
		}
	}
}

// FuzzExpectedTicksMatchesOracle builds a small tick MDP from the input
// bytes, with 3-branch choices, non-dyadic probabilities, terminal and
// +Inf rows and, when the first byte is odd, zero-duration edges that may
// close cycles (so the sweep plan is Jacobi). Both directions must
// return the reference value iteration's vector bit for bit, or the
// same error, and neither may give up with ErrNoConvergence. The last
// seed has a state whose minimizing scheduler can only choose between a
// tick self-loop and a coin into a dead end: some scheduler reaches the
// target with positive probability, none almost surely, so both solvers
// give it +Inf (where a solver that pinned only the states that cannot
// reach the target would sweep forever).
func FuzzExpectedTicksMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 0, 1, 1, 4, 0, 2, 3, 1, 0, 5, 2, 2, 1, 9})
	f.Add([]byte{1, 6, 0, 3, 1, 6, 2, 0, 3, 1, 1, 5, 0, 4, 2, 6, 1, 0, 2, 3, 3, 12})
	f.Add([]byte{1, 4, 1, 1, 2, 0, 1, 3, 2, 1, 0, 2, 1, 1, 3, 0, 2, 2, 1, 4, 0, 1})
	f.Add([]byte{0, 1, 1, 2, 0, 0, 1, 1, 2, 0, 0, 1, 0})
	dists := append(append([][]prob.Rat(nil), dyadicDists...), thirdDists...)
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := picker(data)
		zeno := pick(2) == 1
		m, target := buildTickMDP(pick, dists, zeno)
		for _, maximize := range []bool{true, false} {
			want, wantErr := expectedTicksOracle(m, target, maximize)
			if errors.Is(wantErr, ErrNoConvergence) {
				t.Fatalf("maximize=%t: reference: %v", maximize, wantErr)
			}
			got, err := m.expectedTicks(target, maximize)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("maximize=%t: err %v, reference %v", maximize, err, wantErr)
			}
			if err == nil {
				requireSameTicks(t, got, want)
			}
		}
		short := target[:len(target)-1]
		_, err := m.expectedTicks(short, true)
		_, wantErr := expectedTicksOracle(m, short, true)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("short target mask: err %v, reference %v", err, wantErr)
		}
	})
}

// FuzzProb0EMatchesOracle: on small tick MDPs with terminal rows,
// self-loops and targets, the worklist Prob0E, MinProbOne on it and
// MaxProbOne must return the pass loops' masks.
func FuzzProb0EMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 0, 1, 1, 4, 0, 2, 3, 1, 0, 5, 2, 2, 1, 9})
	f.Add([]byte{1, 6, 0, 3, 1, 6, 2, 0, 3, 1, 1, 5, 0, 4, 2, 6, 1, 0, 2, 3, 3, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := picker(data)
		zeno := pick(2) == 1
		m, target := buildTickMDP(pick, dyadicDists, zeno)
		if got, want := m.Prob0E(target), prob0EOracle(m, target); !slices.Equal(got, want) {
			t.Fatalf("Prob0E %v, pass loop %v", got, want)
		}
		if got, want := m.MinProbOne(target), minProbOneOracle(m, target); !slices.Equal(got, want) {
			t.Fatalf("MinProbOne %v, on the pass loop %v", got, want)
		}
		if got, want := m.MaxProbOne(target), maxProbOneOracle(m, target); !slices.Equal(got, want) {
			t.Fatalf("MaxProbOne %v, pass loops %v", got, want)
		}
	})
}
