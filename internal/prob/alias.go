package prob

// Alias is a Walker alias-table sampler for a Dist: the table is built
// once, at construction, and each draw costs O(1) — one multiply, one
// truncation and one comparison — against Dist.Pick's O(n) cumulative
// scan over big.Rat weights. It is the sampler of the compiled Monte
// Carlo engine (internal/sim), where the same distribution is sampled
// millions of times.
//
// Pick consumes exactly one uniform in [0, 1), just like Dist.Pick, so
// the two samplers read the same random stream. Pick is distribution-
// equivalent to Dist.Pick: the table columns are built from the measure
// the cumulative scan induces on [0, 1) — the same weight[v].Float64()
// values, accumulated with the scan's exact additions and clamped to the
// unit interval — so every support element is drawn with the scan's
// probability, up to the float64 rounding of the table build (a few
// ulps; the alias tests pin the per-element measure). It is not
// bit-identical to Dist.Pick for every r, though: the alias method
// partitions [0, 1) differently than the cumulative scan (on a 3/4–1/4
// coin, draws in [1/2, 3/4) map to different outcomes). Fair coins and
// point masses are the exception: there both partitions coincide.
//
// Deriving the columns from the scan measure is also what hardens Pick
// against degenerate weights: a total that rounds to zero sends every
// draw to the last support element (the scan's fallthrough), and
// weights past the unit interval are absorbed exactly where the scan
// stops distinguishing them.
//
// An Alias is immutable after construction and safe for concurrent use.
// The zero value is an empty sampler (matching the zero Dist); like
// Dist.Pick, its Pick panics.
type Alias[T comparable] struct {
	support []T
	// prob[i] is the probability that column i keeps the draw; a draw
	// landing in column i with intra-column fraction >= prob[i] is
	// redirected to support[alias[i]].
	prob  []float64
	alias []int32
}

// BuildAlias pre-resolves d into an Alias sampler using Walker's
// two-stack construction. The support slice is shared with d (both are
// immutable).
func BuildAlias[T comparable](d Dist[T]) Alias[T] {
	a := Alias[T]{support: d.support}
	n := len(d.support)
	if n == 0 {
		return a
	}
	a.prob = make([]float64, n)
	a.alias = make([]int32, n)

	// The scan measure: Dist.Pick selects element i exactly when r lands
	// in [cum[i-1], cum[i]) clamped to [0, 1), with the last element
	// additionally owning the fallthrough tail. Accumulate the cums with
	// Dist.Pick's exact additions, clamp, and difference — the resulting
	// masses telescope to 1 and reproduce the scan's behavior for any
	// weights, including degenerate ones (all-zero after Float64
	// rounding, totals past 1, non-finite outliers).
	mass := make([]float64, n)
	acc, prev := 0.0, 0.0
	for i, v := range d.support {
		acc += d.weight[v].Float64()
		c := clampUnit(acc)
		mass[i] = c - prev
		prev = c
	}
	mass[n-1] += 1 - prev // the scan's fallthrough tail
	total := 0.0
	for i := range mass {
		if !(mass[i] > 0) { // negative or NaN residue cannot seed a column
			mass[i] = 0
		}
		total += mass[i]
	}
	if !(total > 0) {
		// Unreachable for masses derived above (the tail term forces a
		// positive total), but keep the zero-table safe: route every
		// draw to the scan's fallthrough element.
		for i := range a.prob {
			a.alias[i] = int32(n - 1)
		}
		return a
	}

	// Walker's construction: scale each mass by n/total so a full column
	// holds exactly 1, then repeatedly top up an under-full column from
	// an over-full donor.
	scale := float64(n) / total
	for i := range mass {
		mass[i] *= scale
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		if mass[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1] // donor stays on its stack while over-full
		a.prob[s] = mass[s]
		a.alias[s] = l
		mass[l] -= 1 - mass[s]
		if mass[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers on either stack (rounding residue) own their column.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// clampUnit clamps a cumulative weight into [0, 1]; NaN clamps to 0 so a
// poisoned accumulation degrades to the fallthrough element instead of
// corrupting the table.
func clampUnit(x float64) float64 {
	if !(x > 0) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Len returns the size of the support.
func (a Alias[T]) Len() int { return len(a.support) }

// Pick selects an outcome using r, a number in [0, 1): the integer part
// of r·n picks the column, the fractional part plays the column's coin.
// It panics on an empty sampler just as Dist.Pick does.
func (a Alias[T]) Pick(r float64) T {
	return a.support[a.PickIndex(r)]
}

// PickIndex is Pick returning the support index of the outcome instead
// of the outcome itself, for callers that keep side tables parallel to
// the support (At recovers the outcome). Same r, same draw as Pick.
func (a Alias[T]) PickIndex(r float64) int {
	n := len(a.support)
	if n == 0 {
		panic("prob: Pick on empty distribution")
	}
	if n == 1 {
		return 0
	}
	x := r * float64(n)
	i := int(x)
	if i >= n {
		// r < 1 guarantees x < n mathematically, but the multiply may
		// round up to exactly n for r just below 1 and large n.
		i = n - 1
	}
	if x-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// At returns the i-th support element, in the order PickIndex indexes.
func (a Alias[T]) At(i int) T { return a.support[i] }
