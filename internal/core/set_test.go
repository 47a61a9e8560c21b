package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// The oracle for memoized extents: the per-state loops Universe used
// before sets memoized their extents, calling Contains on every state.

func subsetOracle[S comparable](states []S, a, b Set[S]) bool {
	_, found := witnessOracle(states, a, b)
	return !found
}

func witnessOracle[S comparable](states []S, a, b Set[S]) (S, bool) {
	for _, s := range states {
		if a.Contains(s) && !b.Contains(s) {
			return s, true
		}
	}
	var zero S
	return zero, false
}

func countOracle[S comparable](states []S, a Set[S]) int {
	n := 0
	for _, s := range states {
		if a.Contains(s) {
			n++
		}
	}
	return n
}

func maskOracle[S comparable](states []S, a Set[S]) []bool {
	mask := make([]bool, len(states))
	for i, s := range states {
		mask[i] = a.Contains(s)
	}
	return mask
}

// requireExtentsMatch compares every memoized query on u against the
// oracle, for every set and every ordered pair of sets.
func requireExtentsMatch(t *testing.T, label string, u *Universe[int], sets []Set[int]) {
	t.Helper()
	for _, a := range sets {
		if got, want := u.Count(a), countOracle(u.states, a); got != want {
			t.Fatalf("%s: Count(%s) = %d, oracle %d", label, a.Name, got, want)
		}
		if got, want := a.Mask(u.states), maskOracle(u.states, a); !slices.Equal(got, want) {
			t.Fatalf("%s: Mask(%s) = %v, oracle %v", label, a.Name, got, want)
		}
		for _, b := range sets {
			if got, want := u.Subset(a, b), subsetOracle(u.states, a, b); got != want {
				t.Fatalf("%s: Subset(%s, %s) = %t, oracle %t", label, a.Name, b.Name, got, want)
			}
			if got, want := u.Equal(a, b), subsetOracle(u.states, a, b) && subsetOracle(u.states, b, a); got != want {
				t.Fatalf("%s: Equal(%s, %s) = %t, oracle %t", label, a.Name, b.Name, got, want)
			}
			w, ok := u.Witness(a, b)
			ow, ook := witnessOracle(u.states, a, b)
			if w != ow || ok != ook {
				t.Fatalf("%s: Witness(%s, %s) = %d, %t; oracle %d, %t", label, a.Name, b.Name, w, ok, ow, ook)
			}
		}
	}
}

// fuzzSets decodes data into states drawn from 0..63 for two universes
// and a family of sets over them: sets given by a membership word, a
// struct-literal set (no memo), a nil-predicate set, and unions of
// earlier sets, unions of unions included.
func fuzzSets(data []byte) (a, b []int, sets []Set[int]) {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v) % n
	}
	word := func() uint64 {
		var w uint64
		for range 8 {
			w = w<<8 | uint64(pick(256))
		}
		return w
	}
	a = make([]int, pick(150))
	for i := range a {
		a[i] = pick(64)
	}
	if pick(2) == 0 {
		b = a[:len(a)/2] // the same array, shorter: a different state list
	} else {
		b = make([]int, pick(150))
		for i := range b {
			b[i] = pick(64)
		}
	}
	for i := range 1 + pick(4) {
		w := word()
		sets = append(sets, NewSet(fmt.Sprintf("S%d", i), func(s int) bool { return w&(1<<s) != 0 }))
	}
	lit := word()
	sets = append(sets,
		Set[int]{Name: "L", Pred: func(s int) bool { return lit&(1<<s) != 0 }},
		NewSet[int]("N", nil))
	for range pick(5) {
		parts := make([]Set[int], 1+pick(3))
		for i := range parts {
			parts[i] = sets[pick(len(sets))]
		}
		sets = append(sets, Union(parts...))
	}
	return a, b, sets
}

// FuzzSetExtents: memoized Subset, Equal, Count, Witness and Mask equal
// the per-state loops over random predicates, random universes and
// unions of unions. The same sets are queried over one universe, then a
// second, then the first again, so a memo must answer only for the state
// list it was computed on.
func FuzzSetExtents(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 7, 3, 9, 63, 0, 1, 1, 2, 3, 255, 0, 17, 4, 4, 200, 3, 1, 0, 2, 1, 5, 6})
	f.Add([]byte{149, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 3, 255, 255, 255, 255, 4, 2, 0, 1, 2, 3})
	f.Add([]byte{90, 63, 62, 61, 60, 1, 0, 1, 80, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 0, 1, 2, 2, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, sets := fuzzSets(data)
		ua, ub := NewUniverse(a), NewUniverse(b)
		requireExtentsMatch(t, "first universe", ua, sets)
		requireExtentsMatch(t, "second universe", ub, sets)
		requireExtentsMatch(t, "first universe again", ua, sets)
	})
}

// TestSetExtentConcurrentFirstUse: goroutines that query fresh sets —
// named sets, unions and a union of unions sharing operands — for the
// first time all at once get the oracle's answers (and, under -race, no
// data race on the memo).
func TestSetExtentConcurrentFirstUse(t *testing.T) {
	states := make([]int, 1000)
	for i := range states {
		states[i] = (i * 37) % 64
	}
	u := NewUniverse(states)
	even := NewSet("Even", func(s int) bool { return s%2 == 0 })
	low := NewSet("Low", func(s int) bool { return s < 20 })
	three := NewSet("Three", func(s int) bool { return s%3 == 0 })
	evenLow := Union(even, low)
	all := Union(evenLow, Union(three, low), even)
	sets := []Set[int]{even, low, three, evenLow, all}

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]string, callers)
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sets {
				a, b := sets[(g+k)%len(sets)], sets[(g+2*k+1)%len(sets)]
				if got, want := u.Count(a), countOracle(states, a); got != want {
					errs[g] = fmt.Sprintf("Count(%s) = %d, oracle %d", a.Name, got, want)
					return
				}
				if got, want := u.Subset(a, b), subsetOracle(states, a, b); got != want {
					errs[g] = fmt.Sprintf("Subset(%s, %s) = %t, oracle %t", a.Name, b.Name, got, want)
					return
				}
				if got, want := b.Mask(states), maskOracle(states, b); !slices.Equal(got, want) {
					errs[g] = fmt.Sprintf("Mask(%s) differs from the oracle", b.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("caller %d: %s", g, e)
		}
	}
}

// TestSetExtentEvaluatedOnce: a named set calls its predicate once per
// state of a state list, however many queries and unions read it; a set
// built as a struct literal has no memo and calls it on every query.
func TestSetExtentEvaluatedOnce(t *testing.T) {
	u := testUniverse()
	calls := 0
	pred := func(s int) bool { calls++; return s < 4 }
	a := NewSet("A", pred)
	b := listSet("B", 1, 2)
	for range 3 {
		u.Count(a)
		u.Subset(b, a)
		u.Equal(Union(a, b), a)
	}
	if calls != u.Len() {
		t.Errorf("named set: %d predicate calls over %d states, want %d", calls, u.Len(), u.Len())
	}
	calls = 0
	lit := Set[int]{Name: "A", Pred: pred}
	u.Count(lit)
	u.Count(lit)
	if calls != 2*u.Len() {
		t.Errorf("struct-literal set: %d predicate calls for two counts, want %d", calls, 2*u.Len())
	}
}
