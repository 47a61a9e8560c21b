package mdp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

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

// Optimum is the optimal value, over a set of source states, of the
// probability of reaching a target within one horizon, with the first
// state in index order that attains it.
type Optimum struct {
	Value prob.Rat
	State int
}

// WorstAtHorizon returns the optimum (per goal), over the states of from,
// of the probability of visiting a target while at most horizon ticks
// have elapsed, and the first state in index order that attains it: the
// answer to U --horizon,p--> U' with U as from. Zero-duration moves after
// the last tick still count, as in the paper's "within time t".
//
// It is the tick-bounded solve (worstTicks) that every face below shares.
// Layer h evaluates only the states within horizon−h ticks of from (the
// forward cone, by a 0-1 breadth-first search that does not expand
// targets), and a state whose previous layer is 1 is written as 1
// without evaluation: the value never falls as h grows, nor exceeds 1.
// The answer is exact: the sweeps run on 62-bit fixed point when every
// branch probability is a multiple of 2^-62 (fair coins and point masses
// are), building one prob.Rat for the winner, and on rationals otherwise
// or once a value needs more than 62 bits. The zero-duration graph must
// be acyclic (ErrZenoCycle), from must hold a state, every choice's
// branch probabilities must sum to 1, as Explore's do, and horizon must
// lie in 0..MaxHorizon. The solve runs on the calling goroutine. It
// scans from at the last layer only.
func (m *MDP) WorstAtHorizon(target, from []bool, horizon int, goal Goal) (Optimum, error) {
	q, err := m.newTickQuery(target, from, horizon, goal)
	if err != nil {
		return Optimum{}, err
	}
	var opt Optimum
	q.worstTicks(func(h int, l layer) {
		if h == horizon {
			opt = l.optimum(q)
		}
	})
	return opt, nil
}

// WorstWithinTicks is WorstAtHorizon at every horizon h = 0..horizon from
// one solve: entry h answers U --h,p--> U'.
func (m *MDP) WorstWithinTicks(target, from []bool, horizon int, goal Goal) ([]Optimum, error) {
	q, err := m.newTickQuery(target, from, horizon, goal)
	if err != nil {
		return nil, err
	}
	opt := make([]Optimum, horizon+1)
	q.worstTicks(func(h int, l layer) { opt[h] = l.optimum(q) })
	return opt, nil
}

// WorstStrategy is WorstAtHorizon keeping the solve's horizon+1 layers,
// 8 bytes per state each on fixed point, as the adversary's optimal
// strategy (see Strategy).
func (m *MDP) WorstStrategy(target, from []bool, horizon int, goal Goal) (*Strategy, error) {
	q, err := m.newTickQuery(target, from, horizon, goal)
	if err != nil {
		return nil, err
	}
	st := &Strategy{q: q, layers: make([]layer, horizon+1)}
	q.worstTicks(func(h int, l layer) {
		st.layers[h] = layer{fix: slices.Clone(l.fix), rat: slices.Clone(l.rat)}
		if h == horizon {
			st.opt = l.optimum(q)
		}
	})
	return st, nil
}

// MaxHorizon is the largest tick horizon a solve accepts. It sits far
// above every horizon the paper and the tools use (13 ticks in the
// composed claim T --13,1/8--> C, curves of 16 or 20), and it keeps the
// answers and kept layers, one per horizon, small. Long horizons are
// slow anyway: the values soon outgrow the fixed point's 62 bits, and
// the solve then runs on rationals.
const MaxHorizon = 4096

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

// worstTicks runs q's solve, handing each finished layer to onLayer,
// which must copy what it keeps: the buffer is reused two layers on.
// After a fallback the rational solve hands over every layer again from
// horizon 0, so the last call for a horizon holds its answer. The input
// alone selects the kernel, which is returned for tests.
func (q *tickQuery) worstTicks(onLayer func(h int, l layer)) kernel {
	k := kernelRat
	if q.c.fixedPoint() {
		if q.fixedSweep(func(h int, fix []uint64) { onLayer(h, layer{fix: fix}) }) {
			return kernelFixed
		}
		k = kernelFallback
	}
	q.ratSweep(func(h int, rat []prob.Rat) { onLayer(h, layer{rat: rat}) })
	return k
}

// layer is one finished tick layer of a solve: fixed-point words, or
// rationals when rat is set. Only the states of the layer's cone hold
// values.
type layer struct {
	fix []uint64
	rat []prob.Rat
}

// optimum returns the optimum over q.from in the layer and the first
// state that attains it.
func (l layer) optimum(q *tickQuery) Optimum {
	var s int32
	if l.rat != nil {
		s = firstOpt(q.from, l.rat, q.goal.better)
	} else {
		s = firstOpt(q.from, l.fix, q.goal.betterFix)
	}
	return Optimum{Value: l.value(s), State: int(s)}
}

// value returns state s's value in the layer.
func (l layer) value(s int32) prob.Rat {
	if l.rat != nil {
		return l.rat[s]
	}
	return fixRat(l.fix[s])
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
	target  []bool
	horizon int
	goal    Goal
	cone    tickCone
	from    []int32 // the source states, ascending
}

// newTickQuery validates a solve's inputs and schedules it over the cone
// of from.
func (m *MDP) newTickQuery(target, from []bool, horizon int, goal Goal) (*tickQuery, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	if len(from) != m.NumStates {
		return nil, fmt.Errorf("mdp: source mask has %d entries, want %d", len(from), m.NumStates)
	}
	if horizon < 0 || horizon > MaxHorizon {
		return nil, fmt.Errorf("mdp: horizon %d outside 0..%d", horizon, MaxHorizon)
	}
	c := m.CSR()
	order, _, err := c.nonTickLevels()
	if err != nil {
		return nil, err
	}
	q := &tickQuery{c: c, target: target, horizon: horizon, goal: goal}
	var dist []int32
	q.from, dist = c.tickDistances(target, from, horizon)
	if len(q.from) == 0 {
		return nil, errors.New("mdp: empty source set")
	}
	q.cone = newTickCone(order, dist, horizon)
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
// evaluates, nearest to the source set first and, at one distance, in
// the level order of the non-tick DAG. Layer h of a solve to horizon H
// evaluates the prefix of states at most H−h ticks from the source, in
// order. That covers every value the layer reads, each written before
// it is read: a non-target state's zero-duration successors, read from
// layer h, are no farther than it is and on lower levels, so earlier in
// the prefix; its tick successors, read from layer h−1, are at most one
// tick farther, and layer h−1 went out to H−h+1. A target reads nothing.
type tickCone struct {
	order []int32 // the states within horizon ticks
	ends  []int32 // ends[d]: how many states of order are within d ticks
	dist  []int32 // tick distance of every state
}

// newTickCone sorts the states of the level order within horizon ticks
// by distance with one stable counting sort.
func newTickCone(order, dist []int32, horizon int) tickCone {
	// next[d+1] counts distance d; summed, next[d] is where distance d
	// starts and next[d+1] where it ends.
	next := make([]int32, horizon+2)
	for _, d := range dist {
		if int(d) <= horizon {
			next[d+1]++
		}
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	cone := tickCone{order: make([]int32, next[horizon+1]), ends: slices.Clone(next[1:]), dist: dist}
	for _, s := range order {
		if d := dist[s]; int(d) <= horizon {
			cone.order[next[d]] = s
			next[d]++
		}
	}
	return cone
}

// within returns the states of the cone at most d ≤ horizon ticks from
// the source.
func (c tickCone) within(d int) []int32 { return c.order[:c.ends[d]] }

// fixedSweep runs the solve on fixed point, handing each finished layer
// to done; false means some value needed more than 62 bits.
func (q *tickQuery) fixedSweep(done func(h int, layer []uint64)) bool {
	return tickSweep(q, func(states []int32, cur, prev []uint64, ticksLeft bool) bool {
		for _, s := range states {
			if ticksLeft && prev[s] == fixOne {
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
	tickSweep(q, func(states []int32, cur, prev []prob.Rat, ticksLeft bool) bool {
		for _, s := range states {
			if ticksLeft && prev[s].IsOne() {
				cur[s] = prob.One()
			} else {
				cur[s] = q.c.ratState(s, q.target, q.goal, cur, prev, ticksLeft)
			}
		}
		return true
	}, done)
}

// tickSweep runs the Bellman recursion for horizons 0..q.horizon, one
// tick layer at a time, each over its prefix of the cone. eval computes
// the values of the given states, in order, into cur, the layer being
// built, from cur (zero-duration successors, earlier in the order) and
// prev, the previous layer (read by ticks). eval returns false when it
// cannot represent a value exactly; the sweep then stops and reports
// false. Each finished layer goes to done, which must copy what it
// keeps: the buffer is reused two layers on.
func tickSweep[V any](q *tickQuery, eval func(states []int32, cur, prev []V, ticksLeft bool) bool, done func(h int, layer []V)) bool {
	prev, cur := make([]V, q.c.n), make([]V, q.c.n)
	for h := 0; h <= q.horizon; h++ {
		if !eval(q.cone.within(q.horizon-h), cur, prev, h > 0) {
			return false
		}
		done(h, cur)
		prev, cur = cur, prev
	}
	return true
}

// ratState evaluates the Bellman operator at state s on exact rationals.
// cur must already hold valid values for every non-tick successor of s
// (the cone's order guarantees it: they come earlier in the layer's
// prefix); prev holds the previous tick layer. ticksLeft reports whether a tick is still within
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
