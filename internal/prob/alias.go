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
// the cumulative scan induces on [0, 1) — the same Rat.Float64() weight
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
// immutable). A one-element table gets no columns, since PickIndex never
// reads them (Column reports the implied keep-all column), and a table
// of up to stackTable elements keeps its build scratch on the stack: a
// point mass builds with no allocation and a coin with two, the columns
// themselves.
func BuildAlias[T comparable](d Dist[T]) Alias[T] {
	a := Alias[T]{support: d.support}
	n := len(d.support)
	if n <= 1 {
		return a
	}
	a.prob = make([]float64, n)
	a.alias = make([]int32, n)

	var massBuf [stackTable]float64
	var smallBuf, largeBuf [stackTable]int32
	mass, small, large := massBuf[:], smallBuf[:0], largeBuf[:0]
	if n > stackTable {
		mass = make([]float64, n)
		small = make([]int32, 0, n)
		large = make([]int32, 0, n)
	}
	mass = mass[:n]

	// The scan measure: Dist.Pick selects element i exactly when r lands
	// in [cum[i-1], cum[i]) clamped to [0, 1), with the last element
	// additionally owning the fallthrough tail. Accumulate the cums with
	// Dist.Pick's exact additions, clamp, and difference — the resulting
	// masses telescope to 1 and reproduce the scan's behavior for any
	// weights, including degenerate ones (all-zero after Float64
	// rounding, totals past 1, non-finite outliers).
	acc, prev := 0.0, 0.0
	for i, w := range d.weights {
		acc += w.Float64()
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

// stackTable is the largest table whose BuildAlias scratch (the masses
// and the two work stacks) lives on the stack.
const stackTable = 8

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

// Column returns column i of the table: the probability keep that a draw
// landing in the column stays at support element i, and the element
// alias it is redirected to otherwise. A one-element table has no stored
// columns; its one column keeps every draw.
func (a Alias[T]) Column(i int) (keep float64, alias int) {
	if len(a.prob) == 0 {
		return 1, i
	}
	return a.prob[i], int(a.alias[i])
}

// Pick selects an outcome using r, a number in [0, 1): the integer part
// of r·n picks the column, the fractional part plays the column's coin.
// It panics on an empty sampler just as Dist.Pick does.
func (a Alias[T]) Pick(r float64) T {
	return a.support[a.PickIndex(r)]
}

// PickIndex is Pick returning the support index of the outcome instead
// of the outcome itself. Same r, same draw as Pick.
func (a Alias[T]) PickIndex(r float64) int {
	n := len(a.support)
	if n == 0 {
		panic("prob: Pick on empty distribution")
	}
	if n == 1 {
		return 0
	}
	i, u := AliasColumn(r, n)
	if u < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// AliasColumn is Walker's pick arithmetic for an n-column table and a
// uniform r in [0, 1): the integer part of r·n is the column col, and the
// fractional part u plays the column's coin — the draw stays in col when
// u is below the column's keep probability (see Column) and goes to its
// alias otherwise. Alias.PickIndex and the Monte Carlo engine's flat
// outcome records (internal/sim) both draw through it.
func AliasColumn(r float64, n int) (col int, u float64) {
	x := r * float64(n)
	col = int(x)
	if col >= n {
		// r < 1 guarantees x < n mathematically, but the multiply may
		// round up to exactly n for r just below 1 and large n.
		col = n - 1
	}
	return col, x - float64(col)
}
