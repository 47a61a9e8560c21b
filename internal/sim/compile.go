package sim

// This file is the compiled-model layer: Compile wraps a purely
// functional sched.Model in a read-mostly transition cache so the Monte
// Carlo hot loop stops re-deriving what it has already seen. Every run
// goes through it — RunOnce and RunParallel compile whatever model they
// are handed — so there is one trial engine.
//
// Two observations make it sound and fast:
//
//   - sched.Model implementations are documented purely functional:
//     Moves/UserMoves depend only on (state, proc). Their results can
//     therefore be interned per state and shared — across steps, across
//     trials, and across RunParallel workers — without changing any
//     run. A cheap purity spot check guards the contract: a model whose
//     repeated queries disagree (or panic) is rejected with
//     ErrImpureModel.
//
//   - Each step's successor distribution is sampled through a Walker
//     alias table (prob.BuildAlias): O(1) per draw, one uniform per draw,
//     and the same distribution as Dist.Pick (see prob.Alias for why it
//     is not the same draw-for-draw partition of [0, 1)). The table is
//     flattened into one array of outcome records per move — column
//     keep probability, alias, successor state and successor slot side
//     by side — so a draw reads one record (two when the column
//     redirects) instead of the table's columns, the distribution's
//     support and a separate slot array.
//
// Interning a state costs about as much as the model query it caches:
// compileState keeps the steps and the counts the View needs, and
// builds a process's outcome records only when a trial first takes one
// of its moves (most interned states never have most of their processes
// stepped). A trial resolves a drawn successor's entry only when it
// steps from it, so the state a trial ends in is never compiled.
//
// The cache interns states by their own value, sharded by state hash
// (hash/maphash.Comparable) with one RWMutex per shard: a lookup is a
// read-lock and a map hit, and distinct states contend only
// 1/compileShards of the time while the cache warms. In steady state a
// trial walks the successor slots and takes no lock at all.

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// compileShards is the number of cache shards. A power of two so the
// hash folds with a mask; 64 keeps contention negligible for any
// realistic worker count while the cache warms.
const compileShards = 64

// maxCompiledStates bounds the total number of interned states. The
// case-study models have tiny reachable spaces (thousands of states),
// but a model with an effectively unbounded or non-self-identifying
// state type (e.g. NaN-bearing floats, which never compare equal to
// themselves) must not grow the cache without limit: past the cap,
// entries are computed per call, used by the trial that asked, and
// neither interned nor published in a successor slot, so they are
// garbage once that trial moves on.
const maxCompiledStates = 1 << 20

// stateEntry is the compiled form of one interned state: the memoized
// Moves/UserMoves of every process, the derived scheduling facts the
// engine needs every step, and each process's samplers once built. The
// steps and counts are immutable after construction and shared
// read-only (including into policy Views — see the View doc); the
// sampler sets are published once, atomically.
//
// An entry is a fixed few blocks whatever the model: steps (2n), one
// backing array of 4n ints under the four int slices, and samplers (2n).
type stateEntry[S comparable] struct {
	// steps[i] is process i's Moves and steps[n+i] its UserMoves; nil
	// when it has none.
	steps [][]pa.Step[S]
	// samplers is parallel to steps: the samplers of those moves, one per
	// move, nil until a trial first takes one of them (samplerSet).
	samplers   []atomic.Pointer[[]moveSampler[S]]
	moveCount  []int // per proc; len(steps[i]), 0 when not ready
	userCount  []int // per proc; len(steps[n+i])
	ready      []int // procs with algorithm moves, ascending
	userMovers []int // procs with user moves, ascending
}

// moveSampler is one move's successor distribution as the per-event hot
// path reads it: one outcome record per support element, in support
// order, in one contiguous array. A draw picks a Walker column and reads
// that column's record for the keep test, the successor state and the
// successor slot together (the redirected case reads the alias's record
// too), so applyChoice touches one array instead of the alias table's
// two columns, the model's support and a parallel slot array.
type moveSampler[S comparable] []outcome[S]

// outcome is one support element of a move's successor distribution:
// Walker column i's keep probability and alias (prob.Alias.Column),
// support element i's state, and the slot caching that state's interned
// entry.
//
// succ is filled by a trial that steps from the successor: the first
// such step resolves the slot (viewScratch.build), and every later
// traversal skips the shard lock and map probe entirely — in steady
// state the trial loop walks entry to entry through these pointers. The
// slots are atomic because entries are shared across workers; a racing
// double-resolve stores the same canonical entry, so last-write-wins is
// sound. Only interned entries are stored (see maxCompiledStates).
type outcome[S comparable] struct {
	keep  float64
	alias int32
	next  S
	succ  atomic.Pointer[stateEntry[S]]
}

// pick draws the outcome for a uniform r in [0, 1) — prob.AliasColumn's
// arithmetic on the records' columns, so it returns the record of the
// index prob.Alias.PickIndex would (TestRecordPickMatchesAlias). The
// sampler must be nonempty.
func (m moveSampler[S]) pick(r float64) *outcome[S] {
	i, u := prob.AliasColumn(r, len(m))
	if u < m[i].keep {
		return &m[i]
	}
	return &m[m[i].alias]
}

type compileShard[S comparable] struct {
	mu      sync.RWMutex
	entries map[S]*stateEntry[S]
}

// Compiled is the transition-cached form of a model returned by
// Compile. It implements sched.Model and can be used anywhere the
// original could; the trial engine runs on its cache entries (shared
// Views, alias sampling).
type Compiled[S comparable] struct {
	inner sched.Model[S]
	n     int
	seed  maphash.Seed
	count atomic.Int64 // interned entries, for the maxStates cap
	// maxStates is maxCompiledStates, held per cache so tests can lower it.
	maxStates int64

	shards [compileShards]compileShard[S]
}

var _ sched.Model[int] = (*Compiled[int])(nil)

// ErrImpureModel reports a model that failed Compile's purity spot check:
// repeated Moves/UserMoves queries for the same (state, proc) disagreed,
// or a query panicked. The engine caches those results, so it refuses
// such a model instead of running it.
var ErrImpureModel = errors.New("sim: model failed the purity spot check")

// Compile wraps m in a concurrency-safe transition cache that interns
// states, memoizes Moves/UserMoves per state and resolves each successor
// distribution into an alias table the first time a trial draws from it,
// so the hot loop does no repeated model queries, no big.Rat arithmetic
// and no per-draw map lookups. States are interned by their own value.
//
// Compiling relies on the sched.Model contract that Moves/UserMoves are
// purely functional. Compile spot-checks the contract (repeated queries
// on a sample of states must agree) and returns an error matching
// ErrImpureModel when the check fails or panics. Compiling an already
// compiled model returns it unchanged; a nil model is ErrInvalidArgument.
//
// The cache is shared: passing one compiled model to many runs — the
// CLIs and benchmarks do — lets later runs start fully warm.
func Compile[S comparable](m sched.Model[S]) (*Compiled[S], error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrInvalidArgument)
	}
	if c, ok := m.(*Compiled[S]); ok {
		return c, nil
	}
	if err := spotCheckPure(m); err != nil {
		return nil, err
	}
	c := &Compiled[S]{inner: m, n: m.NumProcs(), seed: maphash.MakeSeed(), maxStates: maxCompiledStates}
	for i := range c.shards {
		c.shards[i].entries = make(map[S]*stateEntry[S])
	}
	return c, nil
}

// Name implements sched.Model.
func (c *Compiled[S]) Name() string { return c.inner.Name() }

// NumProcs implements sched.Model.
func (c *Compiled[S]) NumProcs() int { return c.n }

// Start implements sched.Model.
func (c *Compiled[S]) Start() []S { return c.inner.Start() }

// Moves implements sched.Model by serving the memoized steps. The
// returned slice is cached and shared; callers must not modify it (the
// same rule the inner model's documentation of purity implies).
func (c *Compiled[S]) Moves(s S, i int) []pa.Step[S] {
	if i < 0 || i >= c.n {
		// Out-of-range procs are the inner model's business (typically a
		// panic); the cache only ever holds 0..n-1.
		return c.inner.Moves(s, i)
	}
	e, _ := c.entry(s)
	return e.steps[i]
}

// UserMoves implements sched.Model by serving the memoized steps; the
// same sharing rule as Moves applies.
func (c *Compiled[S]) UserMoves(s S, i int) []pa.Step[S] {
	if i < 0 || i >= c.n {
		return c.inner.UserMoves(s, i)
	}
	e, _ := c.entry(s)
	return e.steps[c.n+i]
}

// entry returns the compiled entry for s, interning it on first sight;
// interned is false past the maxStates cap, where the entry is the
// caller's alone. The double-checked insert keeps exactly one canonical
// entry per state even when two workers race to compile it.
func (c *Compiled[S]) entry(s S) (e *stateEntry[S], interned bool) {
	sh := &c.shards[maphash.Comparable(c.seed, s)&(compileShards-1)]
	sh.mu.RLock()
	e = sh.entries[s]
	sh.mu.RUnlock()
	if e != nil {
		return e, true
	}
	e = c.compileState(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.entries[s]; ok {
		return prev, true
	}
	if c.count.Load() >= c.maxStates {
		return e, false
	}
	sh.entries[s] = e
	c.count.Add(1)
	return e, true
}

// compileState queries the inner model once per process — the View
// needs every count — and derives the per-state facts the engine
// otherwise recomputes every step. The samplers are left to samplerSet.
func (c *Compiled[S]) compileState(s S) *stateEntry[S] {
	n := c.n
	ints := make([]int, 4*n)
	e := &stateEntry[S]{
		steps:      make([][]pa.Step[S], 2*n),
		samplers:   make([]atomic.Pointer[[]moveSampler[S]], 2*n),
		moveCount:  ints[:n:n],
		userCount:  ints[n : 2*n : 2*n],
		ready:      ints[2*n : 2*n : 3*n],
		userMovers: ints[3*n : 3*n : 4*n],
	}
	for i := 0; i < n; i++ {
		moves := c.inner.Moves(s, i)
		e.steps[i] = moves
		e.moveCount[i] = len(moves)
		if len(moves) > 0 {
			e.ready = append(e.ready, i)
		}
		user := c.inner.UserMoves(s, i)
		e.steps[n+i] = user
		e.userCount[i] = len(user)
		if len(user) > 0 {
			e.userMovers = append(e.userMovers, i)
		}
	}
	return e
}

// samplerSet returns the samplers of steps[k], building them the first
// time a trial takes one of those moves: one alias table per move
// (prob.BuildAlias), flattened into outcome records that share one
// backing array. Racing builders publish with CompareAndSwap, so every
// trial draws from (and resolves the successor slots of) the one set
// that won.
func (e *stateEntry[S]) samplerSet(k int) []moveSampler[S] {
	if set := e.samplers[k].Load(); set != nil {
		return *set
	}
	moves := e.steps[k]
	size := 0
	for j := range moves {
		size += moves[j].Next.Len()
	}
	recs := make([]outcome[S], size)
	ms := make([]moveSampler[S], len(moves))
	for j := range moves {
		a := prob.BuildAlias(moves[j].Next)
		support := moves[j].Next.Support()
		ms[j], recs = recs[:len(support):len(support)], recs[len(support):]
		for i, next := range support {
			o := &ms[j][i]
			keep, alias := a.Column(i)
			o.keep, o.alias, o.next = keep, int32(alias), next
		}
	}
	if !e.samplers[k].CompareAndSwap(nil, &ms) {
		return *e.samplers[k].Load()
	}
	return ms
}

// spotCheckSample caps how many states the purity spot-check probes:
// the start states plus one successor layer, up to this many.
const spotCheckSample = 32

// spotCheckPure probes the sched.Model purity contract: Moves and
// UserMoves queried twice for the same (state, proc) must agree, over
// the start states and one layer of their successors. It is a spot
// check, not a proof — a model that defeats it violates its documented
// contract — and a panic during probing fails it too, so Compile
// rejects such models up front.
func spotCheckPure[S comparable](m sched.Model[S]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: model panicked: %v", ErrImpureModel, r)
		}
	}()
	n := m.NumProcs()
	sample := append([]S(nil), m.Start()...)
	seen := make(map[S]bool, len(sample))
	for _, s := range sample {
		seen[s] = true
	}
	for _, s := range m.Start() {
		if len(sample) >= spotCheckSample {
			break
		}
		for i := 0; i < n && len(sample) < spotCheckSample; i++ {
			for _, st := range m.Moves(s, i) {
				for _, next := range st.Next.Support() {
					if !seen[next] && len(sample) < spotCheckSample {
						seen[next] = true
						sample = append(sample, next)
					}
				}
			}
		}
	}
	for _, s := range sample {
		for i := 0; i < n; i++ {
			if !stepsEqual(m.Moves(s, i), m.Moves(s, i)) || !stepsEqual(m.UserMoves(s, i), m.UserMoves(s, i)) {
				return fmt.Errorf("%w: %s: repeated queries for process %d in state %v disagree", ErrImpureModel, m.Name(), i, s)
			}
		}
	}
	return nil
}

// stepsEqual reports whether two Moves/UserMoves results are
// interchangeable for the engine: same length and order, same actions,
// and successor distributions with identical supports (in order) and
// exactly equal probabilities.
func stepsEqual[S comparable](a, b []pa.Step[S]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Action != b[i].Action {
			return false
		}
		sa, sb := a[i].Next.Support(), b[i].Next.Support()
		if len(sa) != len(sb) {
			return false
		}
		for j := range sa {
			if sa[j] != sb[j] || !a[i].Next.P(sa[j]).Equal(b[i].Next.P(sb[j])) {
				return false
			}
		}
	}
	return true
}
