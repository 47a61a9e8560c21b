package dining

import "testing"

// The reference predicates read every process through wrap, as Local
// did before it indexed in-range processes directly and the set
// predicates began scanning s.locals[:s.n].

func refLocal(s State, i int) Local { return unpackLocal(s.locals[s.wrap(i)]) }

func refAny(s State, pred func(PC) bool) bool {
	for i := 0; i < s.N(); i++ {
		if pred(refLocal(s, i).PC) {
			return true
		}
	}
	return false
}

func refInT(s State) bool { return refAny(s, inTrying) }
func refInC(s State) bool { return refAny(s, func(pc PC) bool { return pc == C }) }
func refInP(s State) bool { return refAny(s, func(pc PC) bool { return pc == P }) }

func refInRT(s State) bool {
	return refInT(s) && !refAny(s, func(pc PC) bool { return !(pc == ER || pc == R || inTrying(pc)) })
}

func refInF(s State) bool { return refInRT(s) && refAny(s, func(pc PC) bool { return pc == F }) }

func refIsGood(s State, i int) bool {
	l := refLocal(s, i)
	if committedToward(l, Left) {
		r := refLocal(s, i+1)
		return freeNeighbour(r) || hashToward(r, Right)
	}
	if committedToward(l, Right) {
		left := refLocal(s, i-1)
		return freeNeighbour(left) || hashToward(left, Left)
	}
	return false
}

func refInG(s State) bool {
	if !refInRT(s) {
		return false
	}
	for i := 0; i < s.N(); i++ {
		if refIsGood(s, i) {
			return true
		}
	}
	return false
}

// allRings calls f on every ring of n processes whose locals range over
// every packed local value: each of the ten program counters with each
// direction byte, canonical or not.
func allRings(n int, f func(State)) {
	var values []uint8
	for pc := R; pc <= ER; pc++ {
		for u := None; u <= Right; u++ {
			values = append(values, packLocal(Local{PC: pc, U: u}))
		}
	}
	s := State{n: uint8(n)}
	var fill func(i int)
	fill = func(i int) {
		if i == n {
			f(s)
			return
		}
		for _, v := range values {
			s.locals[i] = v
			fill(i + 1)
		}
	}
	fill(0)
}

// TestSetsMatchWrapReference: on every state of rings n=2–4, each set
// predicate and IsGood (for i from -1 to n, so both wrap directions are
// read) agrees with the reference that reads through wrap, and Local
// agrees with it for every index from -n to 2n.
func TestSetsMatchWrapReference(t *testing.T) {
	preds := []struct {
		name      string
		fast, ref func(State) bool
	}{
		{"InT", InT, refInT},
		{"InC", InC, refInC},
		{"InP", InP, refInP},
		{"InRT", InRT, refInRT},
		{"InF", InF, refInF},
		{"InG", InG, refInG},
		{"InFGP", InFGP, func(s State) bool { return refInF(s) || refInG(s) || refInP(s) }},
		{"InGP", InGP, func(s State) bool { return refInG(s) || refInP(s) }},
		{"InRTC", InRTC, func(s State) bool { return refInRT(s) || refInC(s) }},
	}
	for n := 2; n <= 4; n++ {
		states := 0
		allRings(n, func(s State) {
			states++
			for _, p := range preds {
				if got, want := p.fast(s), p.ref(s); got != want {
					t.Fatalf("%s(%v) = %v, reference %v", p.name, s, got, want)
				}
			}
			for i := -1; i <= n; i++ {
				if got, want := IsGood(s, i), refIsGood(s, i); got != want {
					t.Fatalf("IsGood(%v, %d) = %v, reference %v", s, i, got, want)
				}
			}
			for i := -n; i <= 2*n; i++ {
				if got, want := s.Local(i), refLocal(s, i); got != want {
					t.Fatalf("%v.Local(%d) = %v, reference %v", s, i, got, want)
				}
			}
		})
		want := 1
		for range n {
			want *= 30
		}
		if states != want {
			t.Fatalf("n=%d: enumerated %d states, want 30^%d", n, states, n)
		}
	}
}
