package mdp

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/prob"
)

// Goal selects the optimization direction: the adversary of the paper
// minimizes the probability of good events and maximizes expected time,
// so worst-case checks of U --t,p--> U' use MinProb.
type Goal int

// Optimization directions.
const (
	// MinProb computes inf over adversaries (worst case for progress
	// properties).
	MinProb Goal = iota + 1
	// MaxProb computes sup over adversaries.
	MaxProb
)

func (g Goal) better(a, b prob.Rat) bool {
	if g == MinProb {
		return a.Less(b)
	}
	return b.Less(a)
}

// ErrZenoCycle is returned when the zero-duration (non-tick) transition
// graph has a cycle. Tick-horizon analyses require the digitized model to
// make every within-window move consume a bounded resource; the sched
// package guarantees this by construction, and the error flags models
// that admit Zeno behaviour (time stopped forever), for which the
// worst-case quantities of the paper are not well defined.
var ErrZenoCycle = errors.New("mdp: cycle of zero-duration transitions (Zeno behaviour)")

// ReachWithinTicks computes, for every state, the optimal (per goal)
// probability that a target state is visited while at most horizon ticks
// have elapsed. Zero-duration moves after the last tick still count as
// "within the horizon", matching the paper's "within time t" (time is
// exactly t after t unit delays).
//
// The result is exact. When every branch probability is a multiple of
// 2^-62 (fair coins and point masses are), the sweeps run on 62-bit
// fixed-point integers; a non-dyadic probability, or a value that needs
// more than 62 bits, reruns the solve on exact rationals. Either way the
// answer is the same rational. The zero-duration transition graph must
// be acyclic (see ErrZenoCycle). Sweeps run level-parallel over the
// non-tick DAG (MDP.Workers); every state's value is a pure function of
// deeper levels and the previous tick layer, so the result is identical
// for any worker count.
func (m *MDP) ReachWithinTicks(target []bool, horizon int, goal Goal) ([]prob.Rat, error) {
	layers, _, err := m.reachTicks(target, horizon, goal, false)
	if err != nil {
		return nil, err
	}
	return layers[0], nil
}

// ReachWithinTicksLayers is ReachWithinTicks keeping every horizon layer:
// the result has horizon+1 rows, row h giving the optimal probability of
// reaching the target within h ticks from each state.
func (m *MDP) ReachWithinTicksLayers(target []bool, horizon int, goal Goal) ([][]prob.Rat, error) {
	layers, _, err := m.reachTicks(target, horizon, goal, true)
	return layers, err
}

// kernel names the arithmetic that answered a tick-bounded solve.
type kernel int

const (
	// kernelFixed: 62-bit fixed point from the first sweep to the last.
	kernelFixed kernel = iota
	// kernelRat: rationals only; the CSR has a branch probability the
	// fixed-point kernel cannot hold exactly.
	kernelRat
	// kernelFallback: fixed point until a product needed more than 62
	// bits, then the whole solve again on rationals.
	kernelFallback
)

// reachTicks is the solve behind both entry points: every layer when all
// is set, else only the last (as a one-row result). The input alone
// selects the kernel, which is reported for tests.
func (m *MDP) reachTicks(target []bool, horizon int, goal Goal, all bool) ([][]prob.Rat, kernel, error) {
	q, err := m.newTickQuery(target, horizon, goal, all)
	if err != nil {
		return nil, 0, err
	}
	k := kernelRat
	if q.c.fixedPoint() {
		if fixed, ok := q.fixedSweep(); ok {
			return ratLayers(fixed), kernelFixed, nil
		}
		k = kernelFallback
	}
	return q.ratSweep(), k, nil
}

// tickQuery is one tick-bounded solve: its inputs, the CSR and the CSR's
// non-tick level schedule.
type tickQuery struct {
	c             *CSR
	order, levels []int32
	workers       int
	target        []bool
	horizon       int
	goal          Goal
	all           bool
}

func (m *MDP) newTickQuery(target []bool, horizon int, goal Goal, all bool) (*tickQuery, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("mdp: negative horizon %d", horizon)
	}
	c := m.CSR()
	order, levels, err := c.nonTickLevels()
	if err != nil {
		return nil, err
	}
	return &tickQuery{c: c, order: order, levels: levels, workers: m.workers(),
		target: target, horizon: horizon, goal: goal, all: all}, nil
}

// fixedSweep runs the solve on fixed point; !ok means some value needed
// more than 62 bits.
func (q *tickQuery) fixedSweep() ([][]uint64, bool) {
	return tickSweep(q, func(s int32, cur, prev []uint64, ticksLeft bool) (uint64, bool) {
		return q.c.fixState(s, q.target, q.goal, cur, prev, ticksLeft)
	})
}

// ratSweep runs the solve on exact rationals.
func (q *tickQuery) ratSweep() [][]prob.Rat {
	layers, _ := tickSweep(q, func(s int32, cur, prev []prob.Rat, ticksLeft bool) (prob.Rat, bool) {
		return q.c.ratState(s, q.target, q.goal, cur, prev, ticksLeft), true
	})
	return layers
}

// tickSweep runs the Bellman recursion for horizons 0..q.horizon, one
// tick layer at a time and, within a layer, level by level of the
// non-tick DAG, each level split across the workers. eval computes one
// state's value from cur, the layer being built (its non-tick successors
// sit on lower, finished levels), and prev, the previous layer (read by
// ticks). eval returns false when it cannot represent the value exactly;
// the sweep then stops and reports !ok. It returns every layer when
// q.all is set, else the last one alone.
func tickSweep[V any](q *tickQuery, eval func(s int32, cur, prev []V, ticksLeft bool) (V, bool)) (layers [][]V, ok bool) {
	var inexact atomic.Bool
	n := q.c.n
	prev, cur := make([]V, n), make([]V, n)
	for h := 0; h <= q.horizon; h++ {
		if q.all && h > 0 {
			cur = make([]V, n) // the finished layers stay in layers
		}
		ticksLeft := h > 0
		lo := int32(0)
		for _, hi := range q.levels {
			span := q.order[lo:hi]
			parallelFor(q.workers, len(span), func(_, a, b int) {
				for _, s := range span[a:b] {
					v, exact := eval(s, cur, prev, ticksLeft)
					if !exact {
						inexact.Store(true)
						return
					}
					cur[s] = v
				}
			})
			if inexact.Load() {
				return nil, false
			}
			lo = hi
		}
		if q.all {
			layers = append(layers, cur)
		}
		prev, cur = cur, prev
	}
	if !q.all {
		layers = [][]V{prev}
	}
	return layers, true
}

// ratState evaluates the Bellman operator at state s on exact rationals.
// cur must already hold valid values for every non-tick successor of s
// (guaranteed by the level schedule: non-tick successors live on strictly
// lower levels, completed behind earlier barriers); prev holds the
// previous tick layer. ticksLeft reports whether a tick is still within
// the horizon.
func (c *CSR) ratState(s int32, target []bool, goal Goal, cur, prev []prob.Rat, ticksLeft bool) prob.Rat {
	if target[s] {
		return prob.One()
	}
	cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
	if cLo == cHi {
		return prob.Zero()
	}
	var best prob.Rat
	for ci := cLo; ci < cHi; ci++ {
		var v prob.Rat
		tick := c.tick.get(ci)
		if !tick || ticksLeft {
			layer := cur
			if tick {
				layer = prev
			}
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				v = v.Add(c.pr[bi].Mul(layer[c.col[bi]]))
			}
		}
		// A tick at an exhausted horizon contributes probability zero of
		// meeting the bound (v stays the zero value).
		if ci == cLo || goal.better(v, best) {
			best = v
		}
	}
	return best
}

// The fixed-point kernel holds a value v in [0,1] as the integer v·2^62.
const (
	fixBits = 62
	fixOne  = uint64(1) << fixBits
	fixFrac = fixOne - 1 // the bits a product drops when rescaled
)

// fixState is ratState on fixed-point values. A branch probability is
// read from the float array (exact there when c.fixedPoint holds); each
// product is a 128-bit bits.Mul64 rescaled by 2^-62, exact iff the low 62
// bits are zero. It returns false when some product was not.
func (c *CSR) fixState(s int32, target []bool, goal Goal, cur, prev []uint64, ticksLeft bool) (uint64, bool) {
	if target[s] {
		return fixOne, true
	}
	cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
	if cLo == cHi {
		return 0, true
	}
	var best, dropped uint64
	for ci := cLo; ci < cHi; ci++ {
		var v uint64
		tick := c.tick.get(ci)
		if !tick || ticksLeft {
			layer := cur
			if tick {
				layer = prev
			}
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				hi, lo := bits.Mul64(uint64(c.pf[bi]*(1<<fixBits)), layer[c.col[bi]])
				dropped |= lo & fixFrac
				v += hi<<(64-fixBits) | lo>>fixBits
			}
		}
		if ci == cLo || (goal == MinProb && v < best) || (goal == MaxProb && v > best) {
			best = v
		}
	}
	return best, dropped == 0
}

// ratLayers converts fixed-point layers to rationals, building each
// distinct value once per solve and sharing it across states and layers
// (prob.Rat is immutable).
func ratLayers(fixed [][]uint64) [][]prob.Rat {
	seen := map[uint64]prob.Rat{0: prob.Zero(), fixOne: prob.One()}
	out := make([][]prob.Rat, len(fixed))
	for h, layer := range fixed {
		row := make([]prob.Rat, len(layer))
		for s, v := range layer {
			r, ok := seen[v]
			if !ok {
				r = prob.NewRat(int64(v), int64(fixOne))
				seen[v] = r
			}
			row[s] = r
		}
		out[h] = row
	}
	return out
}

// OptAt aggregates a value vector over a set of states: the worst (for
// MinProb, the minimum) value among the states in the mask. It returns
// ok = false when the mask is empty.
func OptAt(values []prob.Rat, mask []bool, goal Goal) (prob.Rat, bool) {
	var best prob.Rat
	found := false
	for s, in := range mask {
		if !in {
			continue
		}
		if !found || goal.better(values[s], best) {
			best = values[s]
			found = true
		}
	}
	return best, found
}
