package mdp

// On-the-fly state-space generation: Explore walks a probabilistic
// automaton frontier by frontier and emits the CSR transition structure
// directly, never materializing the per-state Choices slices the dense
// FromAutomaton path builds. Callers with large models pair it with a
// fixed-width packed state encoding (ExplorePacked) so the interning map
// keys are a few machine words — the same trick the Monte Carlo engine's
// compiled cache plays — and pass a sim.Compile'd model into
// sched.Product so every Steps call during exploration hits the
// simulator's 64-way-sharded transition cache instead of re-deriving
// moves the trial engine already knows.
//
// Determinism. Exploration is parallel but the state numbering is not a
// function of scheduling: each BFS level's successor sets are computed by
// workers on contiguous frontier chunks, then interned by a single
// sequential merge that scans the per-state results in frontier order.
// The numbering is therefore exactly the breadth-first discovery order of
// pa.Automaton.Reachable — an explored MDP and a densely enumerated one
// are structurally identical arrays, which is what the dense-vs-CSR
// equality tests pin.

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/pa"
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

// BudgetError reports a blown exploration budget with the sizes reached.
type BudgetError struct {
	// States and Bytes are the exploration's footprint when it stopped;
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
	// worker per available CPU. Any value yields the identical MDP.
	Workers int
	// MemBudget bounds (approximately) the resident bytes of the interned
	// states plus the CSR under construction, which costs about 4 bytes
	// per state, 8 per choice and 5 per branch (a target and a one-byte
	// probability index); exploration past the bound fails with a
	// *BudgetError. <= 0 means unlimited.
	MemBudget int64
	// Limit bounds the number of states, mirroring FromAutomaton's limit
	// argument; exploration past it fails with pa.ErrLimitExceeded.
	// <= 0 means unlimited.
	Limit int
}

// Explore builds the MDP of auto's reachable space on the fly, interning
// states by their own (comparable) value. The resulting MDP carries only
// the CSR transition form (Choices stays nil); every analysis runs on it
// unchanged. State numbering equals pa.Reachable discovery order.
func Explore[S comparable](auto *pa.Automaton[S], opts ExploreOptions) (*MDP, *Index[S], error) {
	return ExplorePacked(auto, func(s S) S { return s }, opts)
}

// ExplorePacked is Explore interning states by pack(s) instead of s
// itself. pack must be injective on the reachable states (the
// sched.Packer contract); fixed-width keys keep the interning map's
// hashing and equality to a few machine-word operations, which is where
// exploration time goes at millions of states. A model whose branches
// use more distinct probabilities than the CSR can index fails with
// ErrTooManyProbabilities.
func ExplorePacked[S comparable, K comparable](auto *pa.Automaton[S], pack func(S) K, opts ExploreOptions) (*MDP, *Index[S], error) {
	workers := resolveWorkers(opts.Workers)

	// tickOf memoizes DurationOf per action label, validating the
	// unit-duration convention once per label instead of once per choice.
	tickCache := make(map[string]bool)
	tickOf := func(action string) (bool, error) {
		if t, ok := tickCache[action]; ok {
			return t, nil
		}
		d := auto.DurationOf(action)
		var tick bool
		switch {
		case d.IsZero():
			tick = false
		case d.IsOne():
			tick = true
		default:
			return false, fmt.Errorf("%w: action %q has duration %v", ErrBadDuration, action, d)
		}
		tickCache[action] = tick
		return tick, nil
	}

	var (
		states []S
		ids    = make(map[K]int32)
		b      = newCSRBuilder(0, 0, 0)
	)
	overflow := func(what string) error {
		return fmt.Errorf("%w: more than %d %s", ErrIndexOverflow, maxIndex, what)
	}
	intern := func(s S) (int32, error) {
		k := pack(s)
		if id, ok := ids[k]; ok {
			return id, nil
		}
		if len(states) >= maxIndex {
			return 0, overflow("states")
		}
		id := int32(len(states))
		ids[k] = id
		states = append(states, s)
		return id, nil
	}
	for _, s := range auto.Start {
		if _, err := intern(s); err != nil {
			return nil, nil, err
		}
	}

	// perState collects one frontier state's outgoing steps as computed by
	// the parallel phase; successor states are raw S values interned later
	// by the sequential merge.
	type perState struct {
		steps []pa.Step[S]
	}

	// Per-state key/pointer cost of the interning structures, for the
	// budget: the states slice entry, the map key+value, and amortized map
	// overhead (buckets, top-hash bytes — ~3/2 slots per entry at worst).
	var zeroS S
	var zeroK K
	perStateBytes := int64(unsafe.Sizeof(zeroS)) + (3*(int64(unsafe.Sizeof(zeroK))+4))/2

	results := make([]perState, 0, 1024)
	for lo := 0; lo < len(states); {
		hi := len(states) // this BFS level: everything discovered, not yet expanded
		frontier := states[lo:hi]
		if cap(results) < len(frontier) {
			results = make([]perState, len(frontier))
		}
		results = results[:len(frontier)]

		// Parallel phase: compute each frontier state's steps. Workers own
		// contiguous chunks and write only their own rows.
		parallelFor(workers, len(frontier), func(w, a, c int) {
			for i := a; i < c; i++ {
				results[i] = perState{steps: auto.Steps(frontier[i])}
			}
		})

		// Sequential merge: intern successors in frontier order — the BFS
		// discovery order — and append the CSR rows.
		for _, r := range results {
			b.startState()
			for _, step := range r.steps {
				tick, err := tickOf(step.Action)
				if err != nil {
					return nil, nil, err
				}
				if len(b.c.labelID) >= maxIndex {
					return nil, nil, overflow("choices")
				}
				b.addChoice(step.Action, tick)
				for _, o := range step.Next.Outcomes() {
					if opts.Limit > 0 && len(states) >= opts.Limit {
						if _, seen := ids[pack(o.Value)]; !seen {
							return nil, nil, fmt.Errorf("%w: more than %d states", pa.ErrLimitExceeded, opts.Limit)
						}
					}
					if len(b.c.col) >= maxIndex {
						return nil, nil, overflow("branches")
					}
					id, err := intern(o.Value)
					if err != nil {
						return nil, nil, err
					}
					if err := b.addBranch(id, o.Prob); err != nil {
						return nil, nil, fmt.Errorf("%w (action %q)", err, step.Action)
					}
				}
			}
		}
		lo = hi

		if opts.MemBudget > 0 {
			bytes := b.footprint() + int64(len(states))*perStateBytes
			if bytes > opts.MemBudget {
				return nil, nil, &BudgetError{States: len(states), Bytes: bytes, Budget: opts.MemBudget}
			}
		}
	}

	// States discovered but never expanded cannot exist: the loop runs
	// until the frontier is empty, so every interned state got its CSR row.
	csr := b.finish()
	m := &MDP{NumStates: len(states), Workers: opts.Workers, csr: csr}
	ix := &Index[S]{states: states}
	return m, ix, nil
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
