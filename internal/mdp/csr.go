package mdp

// This file is the sparse core of the exact engine: transitions stored in
// compressed-sparse-row (CSR) form — flat int32 row-pointer/column arrays
// plus a one-byte probability index per branch, one contiguous allocation
// each. The on-the-fly explorer (explore.go) emits it directly through
// csrBuilder, and every analysis in the package runs on it.
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
// tick-bounded DP the fixed point; export, witnesses and the rational DP
// that answers when fixed point cannot read the rational.
// Every shipped model uses two values, 1/2 and 1; a 257th distinct value
// is an error (ErrTooManyProbabilities).
//
// Parallelism. The sparse solvers sweep the states of one level of the
// non-tick DAG at a time, split across workers: the tick-bounded DP in
// per-worker contiguous ranges of the level (parallelFor), value
// iteration in the per-worker chunks of its compiled sweep program
// (expect.go), which groups each chunk's rows by shape. Determinism for
// any worker count is by construction: within a sweep each worker writes
// only its own rows, and cross-row reads go either to the previous
// sweep's array or — for zero-duration (non-tick) edges — to rows of
// strictly lower "level", which earlier barriers have already completed,
// so a row's value does not depend on which worker computes it or in
// what order. The per-sweep convergence delta is reduced with max, which
// is exact in floating point, so the iteration trajectory is
// bit-identical whether one worker sweeps or sixteen do.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/prob"
)

// bitset is a packed bool vector: the per-choice tick flags, one bit
// each.
type bitset []uint64

func (b bitset) get(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

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

// csrBuilder accumulates a CSR row by row, in the order the explorer
// discovers states, choices and branches.
type csrBuilder struct {
	c       *CSR
	labelOf map[string]int32
}

func newCSRBuilder() *csrBuilder {
	return &csrBuilder{
		c:       &CSR{choiceRow: []int32{0}, branchRow: []int32{0}},
		labelOf: make(map[string]int32),
	}
}

// startState begins the next state's row.
func (b *csrBuilder) startState() {
	b.c.choiceRow = append(b.c.choiceRow, b.c.choiceRow[len(b.c.choiceRow)-1])
}

// labelID returns the id of a choice label, adding it to the CSR's
// labels when it is new.
func (b *csrBuilder) labelID(label string) int32 {
	id, ok := b.labelOf[label]
	if !ok {
		id = int32(len(b.c.labels))
		b.c.labels = append(b.c.labels, label)
		b.labelOf[label] = id
	}
	return id
}

// addChoice appends a choice to the current state.
func (b *csrBuilder) addChoice(label string, tick bool) {
	b.addChoiceID(b.labelID(label), tick)
}

// addChoiceID appends a choice whose label has the given id.
func (b *csrBuilder) addChoiceID(id int32, tick bool) {
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

// minGrain is the smallest per-sweep work size worth fanning out to
// goroutines; below it the scheduling overhead dominates and the sweep
// runs inline (results are identical either way — see the determinism
// note at the top of the file). A variable so the determinism tests can
// force the parallel path on small models (SetMinGrainForTest in
// export_test.go).
var minGrain = 2048

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
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	fanOut((n+chunk-1)/chunk, func(w int) {
		lo := w * chunk
		fn(w, lo, min(lo+chunk, n))
	})
}

// fanOut runs fn(0), ..., fn(k-1), each on its own goroutine when k > 1,
// and returns when all have.
func fanOut(k int, fn func(i int)) {
	if k == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
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
