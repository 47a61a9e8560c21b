package mdp

// On-the-fly state-space generation: Explore walks a probabilistic
// automaton's discovered states in first-in first-out order and emits
// the CSR transition structure directly; it is how every MDP in the
// repository is built. States are interned by their own value in an
// open-addressed table of int32 ids hashed with maphash.Comparable; the
// table stores ids only, and a probe confirms a hit by comparing the
// states themselves. The analysis constructors explore the raw model's
// product, so nothing is cached between Steps calls.
//
// Determinism. Exploration is parallel but the state numbering is not a
// function of scheduling. The queue of discovered states is cut into
// chunks of at most exploreChunk states; workers expand a chunk (its
// states' steps and, for every branch, the hash of the successor)
// on contiguous parts, and a single sequential merge on the calling
// goroutine then walks the chunk in queue order, probing the id table
// and appending CSR rows. While chunk k merges, chunk k+1 — cut from
// the states discovered before that merge began — is already expanding.
// Where a chunk ends depends only on what the merge has discovered, so
// the numbering is exactly the breadth-first discovery order of
// pa.Automaton.Reachable for any worker count. The test oracle
// (oracle_test.go) numbers states by calling pa.Reachable and builds
// the CSR from that list; the identity tests and FuzzExploreMatchesDense
// pin the explorer's arrays to it, position for position.

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/pa"
	"repro/internal/prob"
)

// ErrMemBudget is the sentinel wrapped by BudgetError: exploration was
// abandoned because the transition structure outgrew the caller's byte
// budget.
var ErrMemBudget = errors.New("mdp: exploration exceeded the memory budget")

// ErrIndexOverflow reports an exploration that outgrew the CSR's int32
// numbering: more states, choices or branches than an int32 id or
// offset can address. The explorer returns it before any id or offset
// would wrap.
var ErrIndexOverflow = errors.New("mdp: exploration exceeds the int32 index space")

// maxIndex is the most states, choices or branches one exploration may
// hold, each numbered by an int32 id and counted by int32 CSR offsets.
// A variable so tests can lower it (SetMaxIndexForTest).
var maxIndex = math.MaxInt32

// exploreChunk is the most discovered states the explorer expands as
// one unit, and exploreFanOut the smallest chunk it expands on worker
// goroutines; a smaller chunk expands inline on the calling goroutine.
// Both were chosen by measurement on the dining n=3 k=2 product
// (EXPERIMENTS.md E28). Variables so tests can lower them and cross many
// chunk boundaries on small models (SetChunkForTest).
var (
	exploreChunk  = 1024
	exploreFanOut = 256
)

// BudgetError reports a blown exploration budget with the sizes reached.
type BudgetError struct {
	// States and Bytes are the exploration's footprint when it stopped
	// (States counts interned states: on a quotient, representatives);
	// Budget is the configured bound.
	States int
	Bytes  int64
	Budget int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v: %d states, %d bytes > budget %d", ErrMemBudget, e.States, e.Bytes, e.Budget)
}

// Unwrap makes errors.Is(err, ErrMemBudget) hold.
func (e *BudgetError) Unwrap() error { return ErrMemBudget }

// ExploreOptions configures on-the-fly exploration.
type ExploreOptions struct {
	// Workers sets the exploration and solver parallelism: 0 means one
	// worker per available CPU. Any value yields the identical MDP. With
	// more than one worker the automaton's Steps runs on several
	// goroutines at once and must be safe for concurrent use; with one,
	// Explore calls it on the calling goroutine only.
	Workers int
	// MemBudget bounds (approximately) the resident bytes of the
	// exploration: the state list, its id table (4 bytes a slot, two to
	// four slots per state), the expanded steps of the two chunks in
	// flight, and the CSR under construction, which costs about 4 bytes
	// per state, 8 per choice and 5 per branch (a target and a one-byte
	// probability index). The estimate is checked after every merged
	// chunk; exploration past the bound fails with a *BudgetError.
	// <= 0 means unlimited.
	MemBudget int64
	// Limit bounds the number of states, as pa.Automaton.Reachable's
	// limit does: exploration that would intern a state past the limit,
	// a start state or a successor, fails with pa.ErrLimitExceeded. On a
	// quotient it counts representatives. <= 0 means unlimited.
	Limit int
}

// Explore builds the MDP of auto's reachable space on the fly, interning
// states by their own (comparable) value. State numbering equals
// pa.Reachable discovery order. A model whose branches use more distinct
// probabilities than the CSR can index fails with
// ErrTooManyProbabilities. When auto is a quotient (pa.Automaton.Orbit),
// the MDP's states are its orbit representatives and the index counts
// the states they stand for.
func Explore[S comparable](auto *pa.Automaton[S], opts ExploreOptions) (*MDP, *Index[S], error) {
	return explore(auto, opts, nil)
}

// explore is Explore with an observer: onChunk, when non-nil, sees the
// state count and the budget estimate after every merged chunk.
func explore[S comparable](auto *pa.Automaton[S], opts ExploreOptions, onChunk func(states int, bytes int64)) (*MDP, *Index[S], error) {
	e := &explorer[S]{
		auto:    auto,
		opts:    opts,
		workers: resolveWorkers(opts.Workers),
		seed:    maphash.MakeSeed(),
		table:   make([]int32, minTable),
		labels:  make(map[string]labelEntry),
		b:       newCSRBuilder(),
	}
	for _, s := range auto.Start {
		if h := e.hash(s); e.find(h, s) < 0 {
			if _, err := e.add(h, s); err != nil {
				return nil, nil, err
			}
		}
	}

	// Two expansions alternate: one merging, the other expanding. Every
	// expansion goroutine has returned before explore does, whichever
	// way it returns.
	var bufs [2]expansion[S]
	defer func() {
		bufs[0].wg.Wait()
		bufs[1].wg.Wait()
	}()
	// cur is the chunk to merge next, spare the other buffer, and
	// states[:queued] are expanded or expanding.
	cur, spare, queued := &bufs[0], &bufs[1], 0
	if len(e.states) == 0 {
		cur = nil
	} else {
		queued = e.expand(cur, 0)
	}
	for cur != nil {
		cur.wg.Wait()
		// Cut the next chunk from what is discovered so far and expand it
		// while this one merges.
		var next *expansion[S]
		if queued < len(e.states) {
			next, queued = spare, e.expand(spare, queued)
		}
		if err := e.merge(cur); err != nil {
			return nil, nil, err
		}
		if opts.MemBudget > 0 || onChunk != nil {
			bytes := e.footprint(cur)
			if onChunk != nil {
				onChunk(len(e.states), bytes)
			}
			if opts.MemBudget > 0 && bytes > opts.MemBudget {
				return nil, nil, &BudgetError{States: len(e.states), Bytes: bytes, Budget: opts.MemBudget}
			}
		}
		if next == nil && queued < len(e.states) {
			next, queued = spare, e.expand(spare, queued)
		}
		cur, spare = next, cur // next is nil once every state is merged
	}

	csr := e.b.finish()
	m := &MDP{NumStates: len(e.states), Workers: opts.Workers, csr: csr}
	return m, newIndex(e.states, auto.Orbit), nil
}

// minTable is the id table's initial slot count: small, so a run that
// stops at its first states (a one-state limit) allocates almost
// nothing.
const minTable = 16

// labelEntry is a choice label's CSR label id and whether its action is
// a tick.
type labelEntry struct {
	id   int32
	tick bool
}

// explorer is the state of one exploration. Everything but the
// expansions is owned by the calling goroutine.
type explorer[S comparable] struct {
	auto    *pa.Automaton[S]
	opts    ExploreOptions
	workers int
	seed    maphash.Seed

	states []S
	// table is the open-addressed (linear probing) id table: a slot
	// holds a state's id plus one, 0 marks it empty. Its length is a
	// power of two, at least twice the number of states.
	table  []int32
	labels map[string]labelEntry // the label table, one entry per distinct action
	b      *csrBuilder
}

// expansion is one chunk of the queue expanded: the steps of each of
// its states, and for every branch of every step, in order, the hash of
// its successor. Each part is one goroutine's contiguous share of
// the chunk.
type expansion[S comparable] struct {
	states []S // the chunk, a window of the explorer's states
	steps  [][]pa.Step[S]
	parts  []expansionPart
	wg     sync.WaitGroup
}

type expansionPart struct {
	lo, hi int      // the part's states, as indices into the chunk
	hashes []uint32 // one per branch of those states' steps, in order
}

// hash hashes s. A table never has more than 2^32 slots, so 32 bits
// place any state.
func (e *explorer[S]) hash(s S) uint32 {
	return uint32(maphash.Comparable(e.seed, s))
}

// find probes the id table for s, which hashes to h: it returns s's
// id, or -1 when s is new.
func (e *explorer[S]) find(h uint32, s S) int32 {
	mask := uint32(len(e.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := e.table[i]
		if v == 0 {
			return -1
		}
		if e.states[v-1] == s {
			return v - 1
		}
	}
}

// add interns the new state s, which hashes to h, and returns its
// id: the next in discovery order.
func (e *explorer[S]) add(h uint32, s S) (int32, error) {
	if e.opts.Limit > 0 && len(e.states) >= e.opts.Limit {
		return 0, fmt.Errorf("%w: more than %d states", pa.ErrLimitExceeded, e.opts.Limit)
	}
	if len(e.states) >= maxIndex {
		return 0, overflow("states")
	}
	if 2*(len(e.states)+1) > len(e.table) {
		e.grow()
	}
	id := int32(len(e.states))
	e.states = append(e.states, s)
	place(e.table, h, id)
	return id, nil
}

// grow doubles the id table, hashing every state again.
func (e *explorer[S]) grow() {
	t := make([]int32, 2*len(e.table))
	for id, s := range e.states {
		place(t, e.hash(s), int32(id))
	}
	e.table = t
}

// place puts id in the first free slot of t from position h.
func place(t []int32, h uint32, id int32) {
	mask := uint32(len(t) - 1)
	i := h & mask
	for t[i] != 0 {
		i = (i + 1) & mask
	}
	t[i] = id + 1
}

func overflow(what string) error {
	return fmt.Errorf("%w: more than %d %s", ErrIndexOverflow, maxIndex, what)
}

// label returns the label table's entry for action, adding one when
// the action is new: its duration must be zero or one, validated once
// per label instead of once per choice.
func (e *explorer[S]) label(action string) (labelEntry, error) {
	if l, ok := e.labels[action]; ok {
		return l, nil
	}
	var tick bool
	switch d := e.auto.DurationOf(action); {
	case d.IsZero():
	case d.IsOne():
		tick = true
	default:
		return labelEntry{}, fmt.Errorf("%w: action %q has duration %v", ErrBadDuration, action, d)
	}
	l := labelEntry{id: e.b.labelID(action), tick: tick}
	e.labels[action] = l
	return l, nil
}

// expand starts expanding the next chunk of the queue, from lo, into x
// and returns where the chunk ends. A chunk of at least exploreFanOut
// states, with more than one worker, expands on worker goroutines (wait
// on x.wg); a smaller one expands before expand returns.
func (e *explorer[S]) expand(x *expansion[S], lo int) int {
	hi := min(len(e.states), lo+exploreChunk)
	n := hi - lo
	x.states = e.states[lo:hi]
	x.steps = slices.Grow(x.steps[:0], n)[:n]
	k := 1
	if e.workers > 1 && n >= exploreFanOut {
		k = min(e.workers, n)
	}
	per := (n + k - 1) / k
	k = (n + per - 1) / per
	// Re-slicing within capacity keeps earlier parts' hash buffers.
	x.parts = slices.Grow(x.parts[:0], k)[:k]
	for p := range x.parts {
		x.parts[p].lo, x.parts[p].hi = p*per, min(p*per+per, n)
	}
	if k == 1 {
		e.expandPart(x, &x.parts[0])
		return hi
	}
	x.wg.Add(k)
	for p := range x.parts {
		go func(part *expansionPart) {
			defer x.wg.Done()
			e.expandPart(x, part)
		}(&x.parts[p])
	}
	return hi
}

// expandPart computes the steps of one part's states and hashes every
// successor. It writes only the part's rows of x.steps and the
// part's own hashes.
func (e *explorer[S]) expandPart(x *expansion[S], part *expansionPart) {
	hs := part.hashes[:0]
	for i := part.lo; i < part.hi; i++ {
		steps := e.auto.Steps(x.states[i])
		x.steps[i] = steps
		for _, st := range steps {
			for _, s := range st.Next.Support() {
				hs = append(hs, e.hash(s))
			}
		}
	}
	part.hashes = hs
}

// merge interns the successors of an expanded chunk in queue order — the
// BFS discovery order — and appends the chunk's CSR rows, reading every
// branch in place from its step.
func (e *explorer[S]) merge(x *expansion[S]) error {
	b := e.b
	for p := range x.parts {
		part := &x.parts[p]
		hs := part.hashes
		for _, steps := range x.steps[part.lo:part.hi] {
			b.startState()
			for _, step := range steps {
				l, err := e.label(step.Action)
				if err != nil {
					return err
				}
				if len(b.c.labelID) >= maxIndex {
					return overflow("choices")
				}
				b.addChoiceID(l.id, l.tick)
				weights := step.Next.Weights()
				for j, s := range step.Next.Support() {
					if len(b.c.col) >= maxIndex {
						return overflow("branches")
					}
					h := hs[0]
					hs = hs[1:]
					id := e.find(h, s)
					if id < 0 {
						if id, err = e.add(h, s); err != nil {
							return err
						}
					}
					if err := b.addBranch(id, weights[j]); err != nil {
						return fmt.Errorf("%w (action %q)", err, step.Action)
					}
				}
			}
		}
	}
	return nil
}

// footprint estimates the exploration's resident bytes after merging
// x: the CSR under construction, the state list, the id table, and the
// expanded steps of two chunks the size of x — the one merged and the
// one in flight. A chunk's steps are counted from what the merge
// appended for it: a slice header per state, a pa.Step per choice, and
// per branch its successor, its probability and its hash.
func (e *explorer[S]) footprint(x *expansion[S]) int64 {
	var (
		zeroS     S
		zeroSteps []pa.Step[S]
		zeroStep  pa.Step[S]
		zeroRat   prob.Rat
	)
	c := e.b.c
	n := len(x.steps)
	choices := int(c.choiceRow[len(c.choiceRow)-1] - c.choiceRow[len(c.choiceRow)-1-n])
	branches := int64(c.branchRow[len(c.branchRow)-1] - c.branchRow[len(c.branchRow)-1-choices])
	chunk := int64(n)*int64(unsafe.Sizeof(zeroSteps)) +
		int64(choices)*int64(unsafe.Sizeof(zeroStep)) +
		branches*(int64(unsafe.Sizeof(zeroS))+int64(unsafe.Sizeof(zeroRat))+4)
	return e.b.footprint() +
		int64(cap(e.states))*int64(unsafe.Sizeof(zeroS)) +
		int64(len(e.table))*4 +
		2*chunk
}

// footprint estimates the builder's resident bytes mid-construction, for
// the exploration budget: the arrays' capacities, counted like the
// finished CSR's MemFootprint (1 byte per branch for its probability
// index, plus the probability table).
func (b *csrBuilder) footprint() int64 {
	c := b.c
	return int64(cap(c.choiceRow))*4 +
		int64(cap(c.branchRow))*4 +
		int64(cap(c.labelID))*4 +
		int64(cap(c.tick))*8 +
		int64(cap(c.col))*4 +
		int64(cap(c.pi)) +
		int64(len(c.probs.rat))*probEntryBytes
}
