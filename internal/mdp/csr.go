package mdp

// This file is the sparse core of the exact engine: transitions stored in
// compressed-sparse-row (CSR) form — flat int32 row-pointer/column arrays
// plus a one-byte probability index per branch, one contiguous allocation
// each — instead of the per-state Choices/Branches slice-of-slices the
// package grew up with. Both representations coexist: MDPs hand-built
// through the Choices field (tests, small models) are converted lazily by
// MDP.CSR, while the on-the-fly explorer (explore.go) emits CSR directly
// and never materializes Choices. Every analysis in the package runs on
// the CSR form, so callers see identical results whichever way the MDP
// was built.
//
// Layout. State s owns choices csr.choiceRow[s] : csr.choiceRow[s+1];
// choice c owns branches csr.branchRow[c] : csr.branchRow[c+1]. Because
// both levels are contiguous, the branches of *state* s are themselves one
// contiguous range branchRow[choiceRow[s]] : branchRow[choiceRow[s+1]] —
// the graph analyses walk that single flat range per state, with no
// per-pop allocation (the fix for the old successors() helper). A branch
// stores its probability as a one-byte index into the CSR's probability
// table, which holds each distinct value once: as the exact prob.Rat, as
// a float64 and, once fixedPoint has found every entry to be a multiple
// of 2^-62, as 62-bit fixed point. Value iteration reads the float, the
// tick-bounded DP the fixed point; validation, export, witnesses and the
// rational DP that answers when fixed point cannot read the rational.
// Every shipped model uses two values, 1/2 and 1; a 257th distinct value
// is an error (ErrTooManyProbabilities).
//
// Parallelism. The sparse solvers sweep states with per-worker contiguous
// row ranges (parallelFor). Determinism for any worker count is by
// construction: within a sweep each worker writes only its own rows, and
// cross-row reads go either to the previous sweep's array or — for
// zero-duration (non-tick) edges — to rows of strictly lower "level" in
// the non-tick DAG, which earlier barriers have already completed. The
// per-sweep convergence delta is reduced with max, which is exact in
// floating point, so the iteration trajectory is bit-identical whether one
// worker sweeps or sixteen do.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/prob"
)

// bitset is a packed bool vector; the MEC decomposition and the tick
// flags use it instead of map[int]bool / []bool for density and O(1)
// clearing by word.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }
func (b bitset) clear(i int32)    { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

func (b bitset) count() int {
	total := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}

// CSR is the compressed-sparse-row transition structure of an MDP. All
// slices are immutable after construction and shared freely across
// goroutines; derived structures (non-tick levels, reverse adjacency) are
// memoized behind sync.Once.
type CSR struct {
	n         int
	choiceRow []int32   // len n+1; choices of state s
	branchRow []int32   // len NumChoices()+1; branches of choice c
	col       []int32   // branch targets
	pi        []uint8   // branch probabilities, as indices into probs
	probs     probTable // each distinct branch probability once
	tick      bitset    // per choice
	labelID   []int32   // per choice, index into labels
	labels    []string  // interned choice labels, first-seen order

	// Non-tick level schedule (nil until first use; levelErr records a
	// Zeno cycle instead). order lists every state grouped by level,
	// level 0 (no non-tick successors) first; levels[l] is the end offset
	// of level l in order.
	topoOnce sync.Once
	topoErr  error
	order    []int32
	levels   []int32

	// Reverse adjacency over states (with edge multiplicity), built on
	// first backward search.
	revOnce sync.Once
	revRow  []int32
	revCol  []int32

	// Whether the tick-bounded solves may run on fixed point (fixedPoint),
	// decided on first use.
	fixOnce sync.Once
	fixOK   bool
}

// maxProbs is the most distinct branch probabilities one CSR can hold:
// a branch names its probability by a one-byte table index.
const maxProbs = 1 << 8

// ErrTooManyProbabilities reports an MDP whose branches use more distinct
// probabilities than the CSR's one-byte probability index can name.
var ErrTooManyProbabilities = errors.New("mdp: more than 256 distinct branch probabilities")

// probTable holds each distinct branch probability of a CSR once, in
// first-seen order.
type probTable struct {
	rat []prob.Rat // the exact value
	f   []float64  // rat[i].Float64()
	fix []uint64   // rat[i]·2^62, set by fixedPoint when it holds
}

// probEntryBytes is the resident size of one table entry: a prob.Rat
// pointer, a float64 and a fixed-point word (the *big.Rat values are
// shared with the model that produced them).
const probEntryBytes = 8 + 8 + 8

// index returns the entry of p, adding one when p is new. It reports
// false when p is new and the table already holds maxProbs entries.
func (t *probTable) index(p prob.Rat) (uint8, bool) {
	for i, r := range t.rat {
		if r.Equal(p) {
			return uint8(i), true
		}
	}
	if len(t.rat) == maxProbs {
		return 0, false
	}
	t.rat = append(t.rat, p)
	t.f = append(t.f, p.Float64())
	return uint8(len(t.rat) - 1), true
}

// NumStates returns the number of states.
func (c *CSR) NumStates() int { return c.n }

// NumChoices returns the total number of choices across all states.
func (c *CSR) NumChoices() int { return len(c.branchRow) - 1 }

// NumBranches returns the total number of probabilistic branches.
func (c *CSR) NumBranches() int { return len(c.col) }

// terminal reports whether state s has no choices.
func (c *CSR) terminal(s int) bool { return c.choiceRow[s] == c.choiceRow[s+1] }

// label returns the label of choice ci.
func (c *CSR) label(ci int32) string { return c.labels[c.labelID[ci]] }

// ratAt returns the exact probability of branch bi.
func (c *CSR) ratAt(bi int32) prob.Rat { return c.probs.rat[c.pi[bi]] }

// stateBranches returns the flat branch index range of state s: every
// branch of every choice of s lives in branchLo..branchHi. This is the
// zero-allocation replacement for the old successors() helper.
func (c *CSR) stateBranches(s int32) (lo, hi int32) {
	return c.branchRow[c.choiceRow[s]], c.branchRow[c.choiceRow[s+1]]
}

// MemFootprint estimates the resident bytes of the transition structure
// (excluding memoized derivations): the quantity the exploration budget
// accounts against. A branch costs its 4-byte target and its 1-byte
// probability index; the probability table adds probEntryBytes per
// distinct value.
func (c *CSR) MemFootprint() int64 {
	return int64(len(c.choiceRow))*4 +
		int64(len(c.branchRow))*4 +
		int64(len(c.labelID))*4 +
		int64(len(c.tick))*8 +
		int64(len(c.col))*4 +
		int64(len(c.pi)) +
		int64(len(c.probs.rat))*probEntryBytes
}

// csrFromChoices converts the slice-of-slices form into CSR. Labels and
// probabilities are interned in first-seen order, matching the
// explorer's interning so a densely built MDP and an explored one
// produce identical structures. It fails only with
// ErrTooManyProbabilities.
func csrFromChoices(n int, choices [][]Choice) (*CSR, error) {
	numChoices, numBranches := 0, 0
	for _, cs := range choices {
		numChoices += len(cs)
		for _, ch := range cs {
			numBranches += len(ch.Branches)
		}
	}
	b := newCSRBuilder(n, numChoices, numBranches)
	for _, cs := range choices {
		b.startState()
		for _, ch := range cs {
			b.addChoice(ch.Label, ch.Tick)
			for _, tr := range ch.Branches {
				if err := b.addBranch(int32(tr.To), tr.P); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.finish(), nil
}

// csrBuilder accumulates a CSR row by row. The explorer and the Choices
// converter both drive it, guaranteeing one canonical construction order.
type csrBuilder struct {
	c       *CSR
	labelOf map[string]int32
}

func newCSRBuilder(nStates, nChoices, nBranches int) *csrBuilder {
	return &csrBuilder{
		c: &CSR{
			choiceRow: make([]int32, 1, nStates+1),
			branchRow: make([]int32, 1, nChoices+1),
			col:       make([]int32, 0, nBranches),
			pi:        make([]uint8, 0, nBranches),
			labelID:   make([]int32, 0, nChoices),
		},
		labelOf: make(map[string]int32),
	}
}

// startState begins the next state's row.
func (b *csrBuilder) startState() {
	b.c.choiceRow = append(b.c.choiceRow, b.c.choiceRow[len(b.c.choiceRow)-1])
}

// addChoice appends a choice to the current state.
func (b *csrBuilder) addChoice(label string, tick bool) {
	id, ok := b.labelOf[label]
	if !ok {
		id = int32(len(b.c.labels))
		b.c.labels = append(b.c.labels, label)
		b.labelOf[label] = id
	}
	ci := int32(len(b.c.labelID))
	b.c.labelID = append(b.c.labelID, id)
	b.c.branchRow = append(b.c.branchRow, b.c.branchRow[len(b.c.branchRow)-1])
	if tick {
		for int(ci)>>6 >= len(b.c.tick) {
			b.c.tick = append(b.c.tick, 0)
		}
		b.c.tick.set(ci)
	}
	b.c.choiceRow[len(b.c.choiceRow)-1]++
}

// addBranch appends a probabilistic branch to the current choice. It
// fails when p would be the table's 257th distinct probability.
func (b *csrBuilder) addBranch(to int32, p prob.Rat) error {
	i, ok := b.c.probs.index(p)
	if !ok {
		return fmt.Errorf("%w: adding %v", ErrTooManyProbabilities, p)
	}
	b.c.col = append(b.c.col, to)
	b.c.pi = append(b.c.pi, i)
	b.c.branchRow[len(b.c.branchRow)-1]++
	return nil
}

// finish seals the structure.
func (b *csrBuilder) finish() *CSR {
	c := b.c
	c.n = len(c.choiceRow) - 1
	need := (len(c.labelID) + 63) / 64
	for len(c.tick) < need {
		c.tick = append(c.tick, 0)
	}
	return c
}

// validate checks the CSR invariants mirrored from MDP.Validate: targets
// in range and exact branch probabilities summing to one per choice.
func (c *CSR) validate() error {
	for s := 0; s < c.n; s++ {
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			total := prob.Zero()
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				to := c.col[bi]
				if to < 0 || int(to) >= c.n {
					return fmt.Errorf("mdp: state %d choice %d targets out-of-range state %d", s, ci-c.choiceRow[s], to)
				}
				p := c.ratAt(bi)
				if p.Sign() <= 0 {
					return fmt.Errorf("mdp: state %d choice %d has non-positive branch probability %v", s, ci-c.choiceRow[s], p)
				}
				total = total.Add(p)
			}
			if !total.IsOne() {
				return fmt.Errorf("mdp: state %d choice %d branches sum to %v", s, ci-c.choiceRow[s], total)
			}
		}
	}
	return nil
}

// minGrain is the smallest per-sweep work size worth fanning out to
// goroutines; below it the scheduling overhead dominates and the sweep
// runs inline (results are identical either way — see the determinism
// note at the top of the file). A variable so the determinism tests can
// force the parallel path on small models via SetMinGrainForTest.
var minGrain = 2048

// SetMinGrainForTest overrides the inline-sweep threshold and returns a
// restore function. Test-only: the override is global, so callers must
// not run overridden code in parallel with other tests' sweeps.
func SetMinGrainForTest(g int) (restore func()) {
	old := minGrain
	minGrain = g
	return func() { minGrain = old }
}

// resolveWorkers maps the MDP.Workers convention (0 = all cores) to a
// concrete count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// parallelFor splits [0, n) into per-worker contiguous ranges and runs fn
// on each; fn must write only state it owns for the range. The partition
// depends only on (workers, n), never on scheduling, and small ranges run
// inline on the calling goroutine.
func parallelFor(workers, n int, fn func(w, lo, hi int)) {
	if workers <= 1 || n < minGrain {
		fn(0, 0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// parallelForMax is parallelFor with a max-reduction over per-worker
// results. max is exact in floating point, so the reduced value does not
// depend on the worker count or completion order.
func parallelForMax(workers, n int, fn func(lo, hi int) float64) float64 {
	if workers <= 1 || n < minGrain {
		return fn(0, n)
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	out := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			out[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	best := 0.0
	for _, d := range out {
		if d > best {
			best = d
		}
	}
	return best
}

// nonTickLevels computes the level schedule of the zero-duration edge
// graph: level(s) = 0 when s has no non-tick successors, else
// 1 + max(level of non-tick successors). Along every non-tick edge the
// level strictly decreases, so states within one level are independent
// under the cur/prev read discipline and may be swept in parallel. The
// schedule exists iff the non-tick graph is acyclic; a cycle is reported
// once as ErrZenoCycle and memoized.
func (c *CSR) nonTickLevels() ([]int32, []int32, error) {
	c.topoOnce.Do(func() { c.order, c.levels, c.topoErr = c.buildNonTickLevels() })
	return c.order, c.levels, c.topoErr
}

func (c *CSR) buildNonTickLevels() ([]int32, []int32, error) {
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	n := c.n
	color := make([]int8, n)
	level := make([]int32, n)

	// Iterative DFS over non-tick edges; the frame cursor walks the
	// state's choice range and, within a choice, its branch range.
	type frame struct {
		state int32
		ci    int32 // current choice
		bi    int32 // next branch within ci (valid when ci is non-tick)
	}
	var stack []frame
	push := func(s int32) {
		color[s] = onStack
		f := frame{state: s, ci: c.choiceRow[s]}
		if f.ci < c.choiceRow[s+1] {
			f.bi = c.branchRow[f.ci]
		}
		stack = append(stack, f)
	}

	for root := int32(0); root < int32(n); root++ {
		if color[root] != unvisited {
			continue
		}
		push(root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			s := f.state
			advanced := false
			for f.ci < c.choiceRow[s+1] {
				if c.tick.get(f.ci) {
					f.ci++
					if f.ci < c.choiceRow[s+1] {
						f.bi = c.branchRow[f.ci]
					}
					continue
				}
				if f.bi >= c.branchRow[f.ci+1] {
					f.ci++
					if f.ci < c.choiceRow[s+1] {
						f.bi = c.branchRow[f.ci]
					}
					continue
				}
				child := c.col[f.bi]
				f.bi++
				switch color[child] {
				case onStack:
					return nil, nil, fmt.Errorf("%w: involving state %d", ErrZenoCycle, child)
				case unvisited:
					push(child)
					advanced = true
				case done:
					if lv := level[child] + 1; lv > level[s] {
						level[s] = lv
					}
				}
				if advanced {
					break
				}
			}
			if advanced {
				continue
			}
			color[s] = done
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := &stack[len(stack)-1]
				if lv := level[s] + 1; lv > level[parent.state] {
					level[parent.state] = lv
				}
			}
		}
	}

	// Bucket states by level with a counting sort: order lists level 0
	// first, states ascending within a level.
	maxLevel := int32(0)
	for _, lv := range level {
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	counts := make([]int32, maxLevel+2)
	for _, lv := range level {
		counts[lv+1]++
	}
	for l := int32(1); l < int32(len(counts)); l++ {
		counts[l] += counts[l-1]
	}
	order := make([]int32, n)
	next := append([]int32(nil), counts...)
	for s := int32(0); s < int32(n); s++ {
		lv := level[s]
		order[next[lv]] = s
		next[lv]++
	}
	return order, counts[1:], nil
}

// fixedPoint reports whether the tick-bounded solves may run on 62-bit
// fixed point: every probability in the table is a multiple of 2^-62 in
// (0,1] whose float64 equals the rational, and every choice's
// probabilities sum to exactly 2^62 (so no sum of exact products can
// overflow). It is decided once per CSR; when it holds, probs.fix holds
// each entry's fixed-point value for the kernel to read.
func (c *CSR) fixedPoint() bool {
	c.fixOnce.Do(func() { c.fixOK = c.buildFixedPoint() })
	return c.fixOK
}

func (c *CSR) buildFixedPoint() bool {
	fix := make([]uint64, len(c.probs.rat))
	for i, r := range c.probs.rat {
		f := c.probs.f[i]
		if !(f > 0 && f <= 1) {
			return false
		}
		q := uint64(f * (1 << fixBits))
		if float64(q) != f*(1<<fixBits) || !r.Equal(prob.NewRat(int64(q), int64(fixOne))) {
			return false
		}
		fix[i] = q
	}
	for ci := 0; ci < c.NumChoices(); ci++ {
		var sum uint64
		for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
			if sum += fix[c.pi[bi]]; sum > fixOne {
				return false
			}
		}
		if sum != fixOne {
			return false
		}
	}
	c.probs.fix = fix
	return true
}

// reverse builds (once) the state-level reverse adjacency: predecessors
// of state t are revCol[revRow[t]:revRow[t+1]], with multiplicity.
func (c *CSR) reverse() ([]int32, []int32) {
	c.revOnce.Do(func() {
		counts := make([]int32, c.n+1)
		for _, t := range c.col {
			counts[t+1]++
		}
		for i := 1; i <= c.n; i++ {
			counts[i] += counts[i-1]
		}
		row := counts
		colOut := make([]int32, len(c.col))
		next := append([]int32(nil), row...)
		for s := int32(0); s < int32(c.n); s++ {
			lo, hi := c.stateBranches(s)
			for bi := lo; bi < hi; bi++ {
				t := c.col[bi]
				colOut[next[t]] = s
				next[t]++
			}
		}
		c.revRow, c.revCol = row, colOut
	})
	return c.revRow, c.revCol
}

// Equal reports whether two CSR structures are identical: same states,
// choices, branches, tick marks, labels, successor columns, and exact
// branch probabilities, position for position. The dense-vs-explored
// equality tests and the mdp smoke check rest on it: the on-the-fly
// explorer must reproduce the dense enumerator's arrays exactly. It
// returns nil on equality and a description of the first difference
// otherwise.
func (c *CSR) Equal(o *CSR) error {
	if c.n != o.n {
		return fmt.Errorf("csr: %d states != %d states", c.n, o.n)
	}
	if nc, no := c.NumChoices(), o.NumChoices(); nc != no {
		return fmt.Errorf("csr: %d choices != %d choices", nc, no)
	}
	if nb, no := c.NumBranches(), o.NumBranches(); nb != no {
		return fmt.Errorf("csr: %d branches != %d branches", nb, no)
	}
	for s := 0; s <= c.n; s++ {
		if c.choiceRow[s] != o.choiceRow[s] {
			return fmt.Errorf("csr: state %d starts at choice %d vs %d", s, c.choiceRow[s], o.choiceRow[s])
		}
	}
	for ci := int32(0); int(ci) < c.NumChoices(); ci++ {
		if c.branchRow[ci] != o.branchRow[ci] {
			return fmt.Errorf("csr: choice %d starts at branch %d vs %d", ci, c.branchRow[ci], o.branchRow[ci])
		}
		if c.tick.get(ci) != o.tick.get(ci) {
			return fmt.Errorf("csr: choice %d tick %v vs %v", ci, c.tick.get(ci), o.tick.get(ci))
		}
		if c.label(ci) != o.label(ci) {
			return fmt.Errorf("csr: choice %d label %q vs %q", ci, c.label(ci), o.label(ci))
		}
	}
	for bi := range c.col {
		if c.col[bi] != o.col[bi] {
			return fmt.Errorf("csr: branch %d targets %d vs %d", bi, c.col[bi], o.col[bi])
		}
		if p, q := c.ratAt(int32(bi)), o.ratAt(int32(bi)); !p.Equal(q) {
			return fmt.Errorf("csr: branch %d probability %v vs %v", bi, p, q)
		}
	}
	return nil
}
