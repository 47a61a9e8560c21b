package dining

// This file defines the state sets of Section 6.2 of the paper. Each is a
// predicate over global states; package core pairs them with names to form
// the sides of time-bound statements. The predicates sit on the Monte
// Carlo engine's per-event path (the target test) and the exact engine's
// per-state set checks, so they scan the packed locals s.locals[:s.n]
// directly instead of going through Local.
//
//	T  — some process is in its trying region {F, W, S, D, P}
//	C  — some process is in its critical region
//	RT — T, and no process is in C or holds resources while exiting
//	F  — RT, and some process is ready to flip
//	P  — some process is in its pre-critical region
//	G  — RT, and some committed process's second resource is not
//	     potentially controlled by its second neighbour ("good" states)

// inTrying reports pc in the trying region T = {F, W, S, D, P}.
func inTrying(pc PC) bool {
	return pc == F || pc == W || pc == S || pc == D || pc == P
}

// InT reports s ∈ T: some process is in its trying region.
func InT(s State) bool {
	for _, b := range s.locals[:s.n] {
		if inTrying(unpackLocal(b).PC) {
			return true
		}
	}
	return false
}

// InC reports s ∈ C: some process is in its critical region.
func InC(s State) bool {
	for _, b := range s.locals[:s.n] {
		if unpackLocal(b).PC == C {
			return true
		}
	}
	return false
}

// InP reports s ∈ P: some process is in its pre-critical region.
func InP(s State) bool {
	for _, b := range s.locals[:s.n] {
		if unpackLocal(b).PC == P {
			return true
		}
	}
	return false
}

// InRT reports s ∈ RT: some process is in its trying region and every
// process is in {E_R, R} or its trying region (no process is critical or
// exiting while still holding resources).
func InRT(s State) bool {
	if !InT(s) {
		return false
	}
	for _, b := range s.locals[:s.n] {
		switch pc := unpackLocal(b).PC; {
		case pc == ER || pc == R || inTrying(pc):
		default:
			return false
		}
	}
	return true
}

// InF reports s ∈ F: s ∈ RT and some process is ready to flip.
func InF(s State) bool {
	if !InRT(s) {
		return false
	}
	for _, b := range s.locals[:s.n] {
		if unpackLocal(b).PC == F {
			return true
		}
	}
	return false
}

// committedToward reports X_i ∈ {W, S} pointing in direction d.
func committedToward(l Local, d Dir) bool {
	return (l.PC == W || l.PC == S) && l.U == d
}

// hashToward reports X_i ∈ {W, S, D} pointing in direction d — the
// paper's "#" with an arrow ("potentially controls" the resource on that
// side).
func hashToward(l Local, d Dir) bool {
	return (l.PC == W || l.PC == S || l.PC == D) && l.U == d
}

// freeNeighbour reports X ∈ {E_R, R, F} — the neighbour states that do not
// potentially control any resource.
func freeNeighbour(l Local) bool {
	return l.PC == ER || l.PC == R || l.PC == F
}

// IsGood reports that process i is a good process in s: committed, with
// its second resource not potentially controlled by the neighbour on that
// side (the definition of G in Section 6.2).
func IsGood(s State, i int) bool {
	l := s.Local(i)
	if committedToward(l, Left) {
		// Second resource is on the right, shared with process i+1.
		r := s.Local(i + 1)
		return freeNeighbour(r) || hashToward(r, Right)
	}
	if committedToward(l, Right) {
		// Second resource is on the left, shared with process i-1.
		left := s.Local(i - 1)
		return freeNeighbour(left) || hashToward(left, Left)
	}
	return false
}

// InG reports s ∈ G: s ∈ RT and some process is good.
func InG(s State) bool {
	if !InRT(s) {
		return false
	}
	for i := 0; i < s.N(); i++ {
		if IsGood(s, i) {
			return true
		}
	}
	return false
}

// InFGP reports s ∈ F ∪ G ∪ P, the target of Proposition A.15.
func InFGP(s State) bool { return InF(s) || InG(s) || InP(s) }

// InGP reports s ∈ G ∪ P, the target of Proposition A.14.
func InGP(s State) bool { return InG(s) || InP(s) }

// InRTC reports s ∈ RT ∪ C, the target of Proposition A.3.
func InRTC(s State) bool { return InRT(s) || InC(s) }
