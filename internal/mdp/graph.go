package mdp

// This file contains the qualitative (graph-based) analyses: backward
// reachability, the states from which some adversary avoids a target
// forever (Prob0E), the states from which every adversary reaches a
// target almost surely (MinProbOne), and those from which some adversary
// does (MaxProbOne). MinProbOne is the Zuck–Pnueli-style baseline the
// paper refines: "with probability 1, some process eventually enters its
// critical region" is MinProbOne, with no time bound attached.
//
// Everything runs on the CSR form: backward searches share the memoized
// reverse adjacency (CSR.reverse) instead of rebuilding it per call, and
// iterate it in place with no per-pop allocation.

import "slices"

// canReachAvoiding is backward reachability of target through paths whose
// intermediate states avoid the blocked mask (blocked target states still
// count as reached; blocked non-target states are never expanded). A nil
// blocked mask blocks nothing.
func (m *MDP) canReachAvoiding(target, blocked []bool) []bool {
	c := m.CSR()
	revRow, revCol := c.reverse()
	seen := make([]bool, c.n)
	stack := make([]int32, 0, 64)
	for s, in := range target {
		if in {
			seen[s] = true
			if blocked == nil || !blocked[s] {
				stack = append(stack, int32(s))
			}
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ri := revRow[s]; ri < revRow[s+1]; ri++ {
			p := revCol[ri]
			if seen[p] {
				continue
			}
			seen[p] = true
			if blocked == nil || !blocked[p] {
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Prob0E returns the mask of states from which some adversary avoids the
// target forever, i.e. achieves P(eventually target) = 0. It is the
// greatest set X of non-target states such that every state of X is
// terminal or has a choice whose branches all stay in X. The set starts
// as every non-target state; a state is dropped once none of its choices
// stays in it, and only the predecessors of a dropped state (through the
// reverse adjacency) are checked again. The greatest fixpoint is unique,
// so the order of the drops does not change the result.
func (m *MDP) Prob0E(target []bool) []bool {
	c := m.CSR()
	revRow, revCol := c.reverse()
	in := make([]bool, c.n)
	for s := range in {
		in[s] = !target[s]
	}
	// keeps reports whether in-set state s still has a choice staying in
	// the set; terminal states always do.
	keeps := func(s int32) bool {
		if c.terminal(int(s)) {
			return true
		}
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			all := true
			for _, t := range c.col[c.branchRow[ci]:c.branchRow[ci+1]] {
				if !in[t] {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	var dropped []int32
	for s := int32(0); int(s) < c.n; s++ {
		if in[s] && !keeps(s) {
			in[s] = false
			dropped = append(dropped, s)
		}
	}
	for len(dropped) > 0 {
		t := dropped[len(dropped)-1]
		dropped = dropped[:len(dropped)-1]
		for _, s := range revCol[revRow[t]:revRow[t+1]] {
			if in[s] && !keeps(s) {
				in[s] = false
				dropped = append(dropped, s)
			}
		}
	}
	return in
}

// MinProbOne returns the mask of states from which EVERY adversary reaches
// the target with probability one: the states that cannot reach, along a
// path avoiding the target, a state where some adversary then avoids the
// target forever. (A path through the target does not witness failure —
// the target has already been visited.) This is the qualitative progress
// property of Zuck and Pnueli that Section 1 of the paper refines into
// quantitative time bounds.
func (m *MDP) MinProbOne(target []bool) []bool {
	avoid := m.Prob0E(target)
	canFail := m.canReachAvoiding(avoid, target)
	out := make([]bool, m.NumStates)
	for s := range out {
		out[s] = target[s] || !canFail[s]
	}
	return out
}

// MaxProbPositive returns the mask of states from which some adversary
// reaches the target with positive probability: backward graph
// reachability of the target.
func (m *MDP) MaxProbPositive(target []bool) []bool {
	return m.canReachAvoiding(target, nil)
}

// MaxProbOne returns the mask of states from which some adversary
// reaches the target with probability one (Prob1E): the greatest set U
// whose states reach the target inside U using only choices whose
// branches all stay in U (Baier & Katoen, Principles of Model Checking,
// ch. 10). U starts as the states that reach the target at all. Each
// round keeps the states of U that reach the target along such choices,
// a backward search over the reverse adjacency that adds a predecessor
// once one of its choices stays in U and has a branch already kept; the
// rounds stop when one keeps all of U. When every state reaches the
// target (every state of the dining n=3 k=2 product reaches C), no
// choice leaves U and U is returned without a round.
func (m *MDP) MaxProbOne(target []bool) []bool {
	c := m.CSR()
	u := m.MaxProbPositive(target)
	if !slices.Contains(u, false) {
		return u
	}
	revRow, revCol := c.reverse()
	kept := make([]bool, c.n)
	// reaches reports whether s has a choice whose branches all stay in
	// u and one of which is kept.
	reaches := func(s int32) bool {
		for ci := c.choiceRow[s]; ci < c.choiceRow[s+1]; ci++ {
			stays, hits := true, false
			for _, t := range c.col[c.branchRow[ci]:c.branchRow[ci+1]] {
				stays = stays && u[t]
				hits = hits || kept[t]
			}
			if stays && hits {
				return true
			}
		}
		return false
	}
	// Each round pushes a state at most once, so the stack never
	// outgrows the state count.
	stack := make([]int32, 0, c.n)
	for {
		for s, in := range target {
			kept[s] = in
			if in {
				stack = append(stack, int32(s))
			}
		}
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range revCol[revRow[t]:revRow[t+1]] {
				if u[s] && !kept[s] && reaches(s) {
					kept[s] = true
					stack = append(stack, s)
				}
			}
		}
		if slices.Equal(kept, u) {
			return kept
		}
		u, kept = kept, u
	}
}
