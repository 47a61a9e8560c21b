package mdp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// betterFix is better on fixed-point values.
func (g Goal) betterFix(a, b uint64) bool {
	if g == MinProb {
		return a < b
	}
	return b < a
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
//
// It evaluates every state at every horizon. A worst case over a set of
// source states is WorstWithinTicks, which solves only the states that
// answer reads; ReachWithinTicks and ReachWithinTicksLayers serve the
// witness walk (WorstWitness) and, as the plain recursion, the tests.
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

// Optimum is the optimal value, over a set of source states, of the
// probability of reaching a target within one horizon, with the first
// state in index order that attains it.
type Optimum struct {
	Value prob.Rat
	State int
}

// WorstWithinTicks computes, for every horizon h = 0..horizon, the
// optimum (per goal) over the states of from of the probability
// ReachWithinTicks gives them at horizon h, and the first state in index
// order that attains it: the answer to a statement U --h,p--> U' with U
// as from, at every h at once. from must hold at least one state, and
// every choice's branch probabilities must sum to 1, as Explore's do.
//
// It solves only what that answer reads. Layer h evaluates a state only
// if it lies within horizon−h ticks of from (the forward cone, found by
// a 0-1 breadth-first search that does not expand targets), and a state
// whose previous layer is exactly 1 is written as 1 without evaluation:
// the probability of reaching within h ticks never falls as h grows and
// never exceeds 1. On fixed point the optimum is taken over the 62-bit
// words, and only the winner becomes a prob.Rat; the rational solve, when
// fixed point cannot answer, keeps the same cone and the same shortcut.
// The answer equals a scan of ReachWithinTicksLayers over from, bit for
// bit and for any worker count.
func (m *MDP) WorstWithinTicks(target, from []bool, horizon int, goal Goal) ([]Optimum, error) {
	opt, _, err := m.worstTicks(target, from, horizon, goal)
	return opt, err
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

// reachTicks is the solve behind ReachWithinTicks and
// ReachWithinTicksLayers: every layer when all is set, else only the last
// (as a one-row result). The input alone selects the kernel, which is
// reported for tests.
func (m *MDP) reachTicks(target []bool, horizon int, goal Goal, all bool) ([][]prob.Rat, kernel, error) {
	q, err := m.newTickQuery(target, nil, horizon, goal)
	if err != nil {
		return nil, 0, err
	}
	k := kernelRat
	if q.c.fixedPoint() {
		var fixed [][]uint64
		if q.fixedSweep(keepLayers(&fixed, all, horizon)) {
			return ratLayers(fixed), kernelFixed, nil
		}
		k = kernelFallback
	}
	var layers [][]prob.Rat
	q.ratSweep(keepLayers(&layers, all, horizon))
	return layers, k, nil
}

// keepLayers returns a layer hook for tickSweep that keeps a copy of
// every layer when all is set, else the last layer alone.
func keepLayers[V any](layers *[][]V, all bool, horizon int) func(h int, layer []V) {
	return func(h int, layer []V) {
		switch {
		case all:
			*layers = append(*layers, slices.Clone(layer))
		case h == horizon:
			*layers = [][]V{layer}
		}
	}
}

// worstTicks is WorstWithinTicks, also reporting the kernel that
// answered, for tests.
func (m *MDP) worstTicks(target, from []bool, horizon int, goal Goal) ([]Optimum, kernel, error) {
	q, err := m.newTickQuery(target, from, horizon, goal)
	if err != nil {
		return nil, 0, err
	}
	if len(q.from) == 0 {
		return nil, 0, errors.New("mdp: empty source set")
	}
	opt := make([]Optimum, horizon+1)
	k := kernelRat
	if q.c.fixedPoint() {
		words := make([]uint64, horizon+1)
		if q.fixedSweep(func(h int, layer []uint64) {
			s := firstOpt(q.from, layer, goal.betterFix)
			opt[h].State, words[h] = int(s), layer[s]
		}) {
			for h, v := range words {
				opt[h].Value = fixRat(v)
			}
			return opt, kernelFixed, nil
		}
		k = kernelFallback
	}
	q.ratSweep(func(h int, layer []prob.Rat) {
		s := firstOpt(q.from, layer, goal.better)
		opt[h] = Optimum{Value: layer[s], State: int(s)}
	})
	return opt, k, nil
}

// firstOpt returns the first state of from (ascending) whose value in
// layer no other state of from beats.
func firstOpt[V any](from []int32, layer []V, better func(a, b V) bool) int32 {
	at := from[0]
	for _, s := range from[1:] {
		if better(layer[s], layer[at]) {
			at = s
		}
	}
	return at
}

// tickQuery is one tick-bounded solve: its inputs, the CSR and the cone
// of states it evaluates.
type tickQuery struct {
	c       *CSR
	workers int
	target  []bool
	horizon int
	goal    Goal
	cone    tickCone
	// from lists the source states ascending; nil for a solve of every
	// state. With a source set, a state whose previous layer is 1 is
	// written as 1 without evaluation.
	from []int32
}

// newTickQuery validates a solve's inputs and schedules it: over every
// state when from is nil, else over the cone of from.
func (m *MDP) newTickQuery(target, from []bool, horizon int, goal Goal) (*tickQuery, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	if from != nil && len(from) != m.NumStates {
		return nil, fmt.Errorf("mdp: source mask has %d entries, want %d", len(from), m.NumStates)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("mdp: negative horizon %d", horizon)
	}
	c := m.CSR()
	order, levels, err := c.nonTickLevels()
	if err != nil {
		return nil, err
	}
	q := &tickQuery{c: c, workers: m.ResolvedWorkers(), target: target, horizon: horizon, goal: goal}
	var dist []int32
	if from != nil {
		q.from, dist = c.tickDistances(target, from, horizon)
	} else {
		dist = make([]int32, c.n) // a solve of every state: all at distance 0
	}
	q.cone = newTickCone(order, levels, dist, horizon)
	return q, nil
}

// tickDistances returns the states of from, ascending, and each state's
// tick distance from them: the fewest ticks on a path from a state of
// from that enters no target before its last state (a target's value is
// 1 whatever its moves, so the solve never reads past one). States more
// than horizon ticks away get math.MaxInt32. It is a 0-1 breadth-first
// search: a zero-duration edge costs 0, a tick 1, and the states at
// distance d are settled before any at d+1.
func (c *CSR) tickDistances(target, from []bool, horizon int) (src, dist []int32) {
	dist = make([]int32, c.n)
	for s, in := range from {
		if in {
			src = append(src, int32(s))
		} else {
			dist[s] = math.MaxInt32
		}
	}
	queue := slices.Clone(src)
	var next []int32
	for d := int32(0); len(queue) > 0; d++ {
		// queue grows while it is walked: zero-duration successors join
		// the current distance. An entry whose distance fell after it was
		// queued was already walked at that distance.
		for i := 0; i < len(queue); i++ {
			s := queue[i]
			if dist[s] != d || target[s] {
				continue
			}
			for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
				nd := d
				if c.tick.get(ci) {
					if int(d) == horizon {
						continue
					}
					nd++
				}
				for _, t := range c.col[c.branchRow[ci]:c.branchRow[ci+1]] {
					if dist[t] <= nd {
						continue
					}
					dist[t] = nd
					if nd == d {
						queue = append(queue, t)
					} else {
						next = append(next, t)
					}
				}
			}
		}
		queue, next = next, queue[:0]
	}
	return src, dist
}

// tickCone is the schedule of a tick-bounded solve: the states it
// evaluates, level by level of the non-tick DAG and, within a level,
// nearest to the source set first. Layer h of a solve to horizon H
// evaluates, in every level, the prefix of states at most H−h ticks from
// the source. That covers every value the layer reads: a state's
// zero-duration successors, read from layer h, are no farther than it
// is, and its tick successors, read from layer h−1, at most one tick
// farther, where layer h−1 went out to H−h+1.
type tickCone struct {
	order  []int32 // the states within horizon ticks
	levels []int32 // end of each non-empty level in order
	dist   []int32 // tick distance of every state
}

// newTickCone groups the states of the level schedule (order, levels)
// within horizon ticks by level and, within a level, by distance, with a
// counting sort. No distance exceeds the state count.
func newTickCone(order, levels, dist []int32, horizon int) tickCone {
	cone := tickCone{order: make([]int32, 0, len(order)), dist: dist}
	far := min(horizon, len(dist))
	count := make([]int32, far+2)
	lo := int32(0)
	for _, hi := range levels {
		span := order[lo:hi]
		lo = hi
		clear(count)
		for _, s := range span {
			if d := dist[s]; int(d) <= far {
				count[d+1]++
			}
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		base := len(cone.order)
		if count[far+1] == 0 {
			continue
		}
		cone.order = cone.order[:base+int(count[far+1])]
		for _, s := range span {
			if d := dist[s]; int(d) <= far {
				cone.order[base+int(count[d])] = s
				count[d]++
			}
		}
		cone.levels = append(cone.levels, int32(len(cone.order)))
	}
	return cone
}

// fixedSweep runs the solve on fixed point, handing each finished layer
// to done; false means some value needed more than 62 bits.
func (q *tickQuery) fixedSweep(done func(h int, layer []uint64)) bool {
	return tickSweep(q, func(span []int32, cur, prev []uint64, ticksLeft bool) bool {
		settled := q.from != nil && ticksLeft
		for _, s := range span {
			if settled && prev[s] == fixOne {
				cur[s] = fixOne
				continue
			}
			v, exact := q.c.fixState(s, q.target, q.goal, cur, prev, ticksLeft)
			if !exact {
				return false
			}
			cur[s] = v
		}
		return true
	}, done)
}

// ratSweep runs the solve on exact rationals, handing each finished
// layer to done.
func (q *tickQuery) ratSweep(done func(h int, layer []prob.Rat)) {
	tickSweep(q, func(span []int32, cur, prev []prob.Rat, ticksLeft bool) bool {
		settled := q.from != nil && ticksLeft
		for _, s := range span {
			if settled && prev[s].IsOne() {
				cur[s] = prob.One()
			} else {
				cur[s] = q.c.ratState(s, q.target, q.goal, cur, prev, ticksLeft)
			}
		}
		return true
	}, done)
}

// tickSweep runs the Bellman recursion for horizons 0..q.horizon, one
// tick layer at a time and, within a layer, level by level of the
// non-tick DAG over the cone's states at that layer, each level split
// across the workers. eval computes the values of a span of states of
// one level into cur, the layer being built (their non-tick successors
// sit on lower, finished levels), from cur and prev, the previous layer
// (read by ticks). eval returns false when it cannot represent a value
// exactly; the sweep then stops and reports false. Each finished layer
// goes to done, which must copy what it keeps: the buffer is reused two
// layers on.
func tickSweep[V any](q *tickQuery, eval func(span []int32, cur, prev []V, ticksLeft bool) bool, done func(h int, layer []V)) bool {
	var inexact atomic.Bool
	n := q.c.n
	prev, cur := make([]V, n), make([]V, n)
	cone := q.cone
	ends := slices.Clone(cone.levels) // each level's end at this layer
	for h := 0; h <= q.horizon; h++ {
		ticksLeft := h > 0
		lo := int32(0)
		for l, hi := range cone.levels {
			end := ends[l]
			for end > lo && int(cone.dist[cone.order[end-1]]) > q.horizon-h {
				end--
			}
			ends[l] = end
			span := cone.order[lo:end]
			lo = hi
			parallelFor(q.workers, len(span), func(_, a, b int) {
				if !eval(span[a:b], cur, prev, ticksLeft) {
					inexact.Store(true)
				}
			})
			if inexact.Load() {
				return false
			}
		}
		done(h, cur)
		prev, cur = cur, prev
	}
	return true
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
				v = v.Add(c.ratAt(bi).Mul(layer[c.col[bi]]))
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

// fixRat returns the rational a fixed-point value holds.
func fixRat(v uint64) prob.Rat { return prob.NewRat(int64(v), int64(fixOne)) }

// fixState is ratState on fixed-point values. A branch probability is
// read from the table's fixed-point column (filled when c.fixedPoint
// holds); each product is a 128-bit bits.Mul64 rescaled by 2^-62, exact
// iff the low 62 bits are zero. It returns false when some product was
// not.
func (c *CSR) fixState(s int32, target []bool, goal Goal, cur, prev []uint64, ticksLeft bool) (uint64, bool) {
	if target[s] {
		return fixOne, true
	}
	cLo, cHi := c.choiceRow[s], c.choiceRow[s+1]
	if cLo == cHi {
		return 0, true
	}
	fix := c.probs.fix
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
				hi, lo := bits.Mul64(fix[c.pi[bi]], layer[c.col[bi]])
				dropped |= lo & fixFrac
				v += hi<<(64-fixBits) | lo>>fixBits
			}
		}
		if ci == cLo || goal.betterFix(v, best) {
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
				r = fixRat(v)
				seen[v] = r
			}
			row[s] = r
		}
		out[h] = row
	}
	return out
}
