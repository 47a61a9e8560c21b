package mdp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNoConvergence is returned when value iteration fails to converge
// within viMaxIter sweeps.
var ErrNoConvergence = errors.New("mdp: value iteration did not converge")

// Value iteration stops once the max-norm difference of two successive
// iterates is at most viEpsilon, and gives up after viMaxIter sweeps.
const (
	viEpsilon = 1e-12
	viMaxIter = 1_000_000
)

// sweepPlan is the deterministic schedule of one value-iteration sweep:
// states grouped by non-tick level (csr.nonTickLevels), so that within a
// sweep non-tick edges read values already written this sweep (strictly
// lower levels, swept earlier) and tick edges read the previous sweep's
// array. When the non-tick graph is cyclic (Zeno models, possible for
// hand-built MDPs) the plan degrades to a pure Jacobi sweep: one level
// holding every state, all edges reading the previous array. Either way a
// state's value in a sweep is a pure function of the values its edges
// read, so the states of one level may be swept in any order:
// compileSweeps groups them by shape, and the trajectory is a pure
// function of the MDP.
type sweepPlan struct {
	order  []int32
	levels []int32
	jacobi bool
}

func (c *CSR) sweepPlan() sweepPlan {
	order, levels, err := c.nonTickLevels()
	if err == nil {
		return sweepPlan{order: order, levels: levels}
	}
	order = make([]int32, c.n)
	for i := range order {
		order[i] = int32(i)
	}
	return sweepPlan{order: order, levels: []int32{int32(c.n)}, jacobi: true}
}

// sweepProgram is one expected-ticks solve compiled for its sweeps. It
// sweeps only the updated rows (not targets or +Inf rows), level by
// level, each level as groups of rows of one shape: the same number of
// non-tick and of tick choices and the same width, the most branches of
// any of their choices rounded up to even. A row's choices are stored
// non-tick first, each as width slots of a branch column and a one-byte
// probability index; a choice with fewer branches is padded with slots
// that read the sentinel column n, whose value is always 0, so a padding
// slot adds pf·0 = +0 and leaves the choice's sum bit-identical (no value
// is −0 or NaN). The order of the choices within a row does not matter:
// a row's value is the max or min of its choices' sums.
//
// The program numbers its rows in sweep order, not by state: the updated
// row at rows[i] has program index i, the pinned rows follow in state
// order, and the sentinel stays n. The value buffers and the slot columns
// use program indices, so run permutes the values in and out once per
// solve, and a sweep writes the buffer front to back.
//
// Rows that reach no cycle of updated rows settle: from some sweep F on
// they recompute the same value every sweep (settleSweeps). Within a
// group the rows that never settle come first, and from sweep retire on
// only they are swept.
type sweepProgram struct {
	n        int
	maximize bool
	jacobi   bool
	pf       [maxProbs]float64 // the CSR's probability table, zero-padded
	rows     []int32           // state of each program index
	col      []int32           // slot columns, as program indices
	pi       []uint8           // slot probability indices
	groups   []rowGroup        // in level order
	retire   int               // max F + 2: both buffers hold every settled row's final value
}

// rowGroup is the rows[lo:hi] of one shape within one level, the live
// ones (that never settle) in rows[lo:live]; their slots start at slot.
type rowGroup struct {
	lo, live, hi  int32
	slot          int
	nonTick, tick int32 // choices per row, non-tick ones first
	width         int32 // slots per choice, even
}

// rowShape is the grouping key of a row.
type rowShape struct{ nonTick, tick, width int32 }

// compileSweeps builds the sweep program of one solve from the CSR, its
// level schedule and the skip mask (rows pinned at their initial value).
func (m *MDP) compileSweeps(skip []bool, maximize bool) *sweepProgram {
	c := m.CSR()
	plan := c.sweepPlan()
	shapes, shapeOf, pending, slots := c.rowShapes(skip)
	settle, maxSettle := c.settleSweeps(skip, pending, plan.jacobi)

	p := &sweepProgram{
		n: c.n, maximize: maximize, jacobi: plan.jacobi, retire: int(maxSettle) + 2,
		rows: make([]int32, 0, c.n), col: make([]int32, slots), pi: make([]uint8, slots),
	}
	copy(p.pf[:], c.probs.f)
	var live, settled []int32
	bucket := make([]int, 2*len(shapes)+1)
	lo := int32(0)
	for _, hi := range plan.levels {
		live, settled = live[:0], settled[:0]
		for _, s := range plan.order[lo:hi] {
			switch {
			case skip[s]:
			case settle[s] == 0:
				live = append(live, s)
			default:
				settled = append(settled, s)
			}
		}
		lo = hi
		p.addLevel(shapes, shapeOf, bucket, live, settled)
	}
	for s, pin := range skip {
		if pin {
			p.rows = append(p.rows, int32(s))
		}
	}
	pos := make([]int32, c.n+1) // program index of each state
	for i, s := range p.rows {
		pos[s] = int32(i)
	}
	pos[c.n] = int32(c.n)
	slot := 0
	for i := range p.groups {
		g := &p.groups[i]
		g.slot = slot
		for _, s := range p.rows[g.lo:g.hi] {
			slot = p.addRecords(c, pos, s, slot, g.width, g.nonTick)
		}
	}
	return p
}

// rowShapes walks the updated rows once. It returns the distinct row
// shapes in first-seen order, each updated row's shape id, each updated
// row's count of branches to other updated rows (what the settle pass
// counts down) and the slots the program needs.
func (c *CSR) rowShapes(skip []bool) (shapes []rowShape, shapeOf, pending []int32, slots int) {
	shapeOf = make([]int32, c.n)
	pending = make([]int32, c.n)
	for s := int32(0); int(s) < c.n; s++ {
		if skip[s] {
			continue
		}
		var sh rowShape
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			if c.tick.get(ci) {
				sh.tick++
			} else {
				sh.nonTick++
			}
			lo, hi := c.branchRow[ci], c.branchRow[ci+1]
			sh.width = max(sh.width, (hi-lo+1)&^1)
			for _, t := range c.col[lo:hi] {
				if !skip[t] {
					pending[s]++
				}
			}
		}
		id := slices.Index(shapes, sh)
		if id < 0 {
			id = len(shapes)
			shapes = append(shapes, sh)
		}
		shapeOf[s] = int32(id)
		slots += int(sh.nonTick+sh.tick) * int(sh.width)
	}
	return shapes, shapeOf, pending, slots
}

// addLevel appends one level's rows as one group per shape, live rows
// first within each group: a counting sort on (shape, settled), with
// bucket 2j holding shape j's live rows and 2j+1 its settled ones.
func (p *sweepProgram) addLevel(shapes []rowShape, shapeOf []int32, bucket []int, live, settled []int32) {
	clear(bucket)
	for _, s := range live {
		bucket[2*shapeOf[s]+1]++
	}
	for _, s := range settled {
		bucket[2*shapeOf[s]+2]++
	}
	for b := 1; b < len(bucket); b++ {
		bucket[b] += bucket[b-1]
	}
	base := int32(len(p.rows))
	for j, sh := range shapes {
		if bucket[2*j] < bucket[2*j+2] {
			p.groups = append(p.groups, rowGroup{
				lo: base + int32(bucket[2*j]), live: base + int32(bucket[2*j+1]), hi: base + int32(bucket[2*j+2]),
				nonTick: sh.nonTick, tick: sh.tick, width: sh.width,
			})
		}
	}
	p.rows = p.rows[:int(base)+len(live)+len(settled)]
	next := bucket[:len(bucket)-1]
	for _, s := range live {
		b := 2 * shapeOf[s]
		p.rows[int(base)+next[b]] = s
		next[b]++
	}
	for _, s := range settled {
		b := 2*shapeOf[s] + 1
		p.rows[int(base)+next[b]] = s
		next[b]++
	}
}

// addRecords writes the slots of state s's choices from slot on, non-tick
// choices first, each padded to width slots, and returns the next slot.
// pos maps a state to its program index.
func (p *sweepProgram) addRecords(c *CSR, pos []int32, s int32, slot int, width, nonTick int32) int {
	w := int(width)
	next, nextTick := slot, slot+int(nonTick)*w
	for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
		at := &next
		if c.tick.get(ci) {
			at = &nextTick
		}
		bi, end := c.branchRow[ci], c.branchRow[ci+1]
		for k := *at; k < *at+w; k, bi = k+1, bi+1 {
			if bi < end {
				p.col[k], p.pi[k] = pos[c.col[bi]], c.pi[bi]
			} else {
				p.col[k], p.pi[k] = int32(p.n), 0
			}
		}
		*at += w
	}
	return nextTick
}

// settleSweeps finds the sweep from which each updated row recomputes
// the same value every sweep: F(s) = max(1, F(t) + step) over the
// branches s→t, where a skipped row has F = 0 and step is 1 when the
// edge reads the previous sweep (a tick, or any edge of a Jacobi plan)
// and 0 when it reads this sweep's value. It is a Kahn pass over the
// reverse adjacency: pending[s] counts s's branches to updated rows not
// yet settled (and is consumed), and a row settles once it reaches 0.
// Rows that reach a cycle of updated rows never settle and get 0, like
// the skipped ones; the second result is the largest F.
func (c *CSR) settleSweeps(skip []bool, pending []int32, jacobi bool) ([]int32, int32) {
	revRow, revCol := c.reverse()
	var queue []int32
	for s, k := range pending {
		if k == 0 && !skip[s] {
			queue = append(queue, int32(s))
		}
	}
	settle := make([]int32, c.n)
	maxF := int32(0)
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		f := int32(1)
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			step := int32(0)
			if jacobi || c.tick.get(ci) {
				step = 1
			}
			for _, t := range c.col[c.branchRow[ci]:c.branchRow[ci+1]] {
				f = max(f, settle[t]+step)
			}
		}
		settle[s] = f
		maxF = max(maxF, f)
		for _, q := range revCol[revRow[s]:revRow[s+1]] {
			if skip[q] {
				continue
			}
			if pending[q]--; pending[q] == 0 {
				queue = append(queue, q)
			}
		}
	}
	return settle, maxF
}

// run iterates the program to a fixpoint from v, the initial value of
// every state, and returns the fixpoint in v. Rows outside the program
// never change, so both value buffers start as v in program order (plus
// the sentinel) and a sweep writes only the rows it updates, group by
// group in level order; the fixpoint is permuted back into v. The delta
// of a sweep is the max over its rows of |new - old|, exact in floating
// point; a retired row's would be |x - x| = 0 (or NaN for x = +Inf,
// which the comparison ignores), so retiring it leaves every delta, and
// so the number of sweeps, unchanged.
func (p *sweepProgram) run(v []float64) ([]float64, error) {
	prev := make([]float64, p.n+1) // prev[n] is the sentinel
	for i, s := range p.rows {
		prev[i] = v[s]
	}
	cur := slices.Clone(prev)
	for sweep := 1; sweep <= viMaxIter; sweep++ {
		liveOnly := sweep >= p.retire
		nonTick := cur
		if p.jacobi {
			nonTick = prev
		}
		delta := 0.0
		for i := range p.groups {
			g := &p.groups[i]
			hi := g.hi
			if liveOnly {
				hi = g.live
			}
			delta = max(delta, p.sweepGroup(g, hi, nonTick, prev, cur))
		}
		prev, cur = cur, prev
		if delta <= viEpsilon {
			for i, s := range p.rows {
				v[s] = prev[i]
			}
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w after %d sweeps", ErrNoConvergence, viMaxIter)
}

// sweepGroup applies the Bellman update to the program indices g.lo:hi
// of group g, writing cur, and returns the largest change, never NaN. A
// non-tick choice sums
// its branches' values in nonTick, a tick choice 1 plus theirs in prev,
// each branch by branch in CSR order as the reference loop does; slots
// are read two at a time (widths are even). With no NaN or −0 among the
// sums, the builtin max and min pick the same value as the reference
// loop's comparisons.
func (p *sweepProgram) sweepGroup(g *rowGroup, hi int32, nonTick, prev, cur []float64) float64 {
	w := int(g.width)
	nt, tk := int(g.nonTick)*w, int(g.tick)*w
	col, pi := p.col[g.slot:], p.pi[g.slot:]
	pf := &p.pf
	worst, maximize := math.Inf(-1), p.maximize
	if !maximize {
		worst = math.Inf(1)
	}
	dd := 0.0
	slot := 0
	for i := g.lo; i < hi; i++ {
		best := worst
		for end := slot + nt; slot < end; {
			val := 0.0
			for next := slot + w; slot < next; slot += 2 {
				val += pf[pi[slot]] * nonTick[col[slot]]
				val += pf[pi[slot+1]] * nonTick[col[slot+1]]
			}
			if maximize {
				best = max(best, val)
			} else {
				best = min(best, val)
			}
		}
		for end := slot + tk; slot < end; {
			val := 1.0
			for next := slot + w; slot < next; slot += 2 {
				val += pf[pi[slot]] * prev[col[slot]]
				val += pf[pi[slot+1]] * prev[col[slot+1]]
			}
			if maximize {
				best = max(best, val)
			} else {
				best = min(best, val)
			}
		}
		if d := math.Abs(best - prev[i]); d > dd {
			dd = d
		}
		cur[i] = best
	}
	return dd
}

// expectedTicks is the shared core of Max/MinExpectedTicks: optimize the
// expected number of ticks to the target, with +Inf pinned on infinite
// rows and the opt direction selected by maximize.
func (m *MDP) expectedTicks(target []bool, maximize bool) ([]float64, error) {
	if len(target) != m.NumStates {
		return nil, fmt.Errorf("mdp: target mask has %d entries, want %d", len(target), m.NumStates)
	}
	v, skip := m.pinned(target, maximize)
	return m.compileSweeps(skip, maximize).run(v)
}

// pinned returns the initial values of an expected-ticks solve and the
// rows that keep them: targets (0) and states where the optimizing
// direction does not reach the target almost surely (+Inf: some
// adversary avoids it with positive probability when maximizing, every
// adversary does when minimizing). A terminal state that is not a
// target reaches no target, so it is among the latter. Every other row
// starts at 0.
func (m *MDP) pinned(target []bool, maximize bool) (v []float64, skip []bool) {
	c := m.CSR()
	var finite []bool
	if maximize {
		finite = m.MinProbOne(target)
	} else {
		finite = m.MaxProbOne(target)
	}
	v = make([]float64, c.n)
	skip = make([]bool, c.n)
	for s := range skip {
		switch {
		case target[s]:
			skip[s] = true
		case !finite[s]:
			v[s] = math.Inf(1)
			skip[s] = true
		}
	}
	return v, skip
}

// MaxExpectedTicks computes, for every state, the supremum over
// adversaries of the expected number of ticks until a target state is
// first visited. States from which some adversary avoids the target with
// positive probability get +Inf; for the rest, value iteration converges
// to the finite value.
//
// In the Lehmann–Rabin reproduction this is the worst-case expected time
// for some process to enter the critical region, compared against the
// paper's derived bound of 63 (Section 6.2).
func (m *MDP) MaxExpectedTicks(target []bool) ([]float64, error) {
	return m.expectedTicks(target, true)
}

// MinExpectedTicks computes, for every state, the infimum over
// adversaries of the expected number of ticks until a target state is
// first visited — the cooperative-scheduler counterpart of
// MaxExpectedTicks, useful for reporting the best-case/worst-case spread
// of a model. States from which no adversary reaches the target almost
// surely (outside MaxProbOne) get +Inf: every adversary misses the
// target with positive probability there, and a run that misses it
// counts +Inf ticks. On the rest an adversary reaches the target almost surely
// inside MaxProbOne, so its expected ticks bound the iterates, and value
// iteration from zero converges to the least fixpoint.
func (m *MDP) MinExpectedTicks(target []bool) ([]float64, error) {
	return m.expectedTicks(target, false)
}
