package prob

import (
	"math"
	"testing"
)

// scanMeasure computes the probability Dist.Pick assigns each support
// element over a uniform r in [0, 1): the clamped cumulative intervals
// plus the fallthrough tail on the last element. This is the measure
// BuildAlias is specified to reproduce.
func scanMeasure[T comparable](d Dist[T]) []float64 {
	n := len(d.support)
	mass := make([]float64, n)
	acc, prev := 0.0, 0.0
	for i, w := range d.weights {
		acc += w.Float64()
		c := clampUnit(acc)
		mass[i] = c - prev
		prev = c
	}
	mass[n-1] += 1 - prev
	return mass
}

// aliasMeasure reads the probability each support element receives out
// of the constructed table: its own column's keep share plus every
// redirected share pointing at it, each column carrying weight 1/n.
func aliasMeasure[T comparable](a Alias[T]) []float64 {
	n := len(a.support)
	if n == 1 {
		return []float64{1}
	}
	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		mass[i] += a.prob[i] / float64(n)
		mass[a.alias[i]] += (1 - a.prob[i]) / float64(n)
	}
	return mass
}

func aliasTestDists() map[string]Dist[int] {
	mk := func(nums ...int64) Dist[int] {
		total := int64(0)
		for _, k := range nums {
			total += k
		}
		outs := make([]Outcome[int], len(nums))
		for i, k := range nums {
			outs[i] = Outcome[int]{Value: i, Prob: NewRat(k, total)}
		}
		return MustDist(outs...)
	}
	return map[string]Dist[int]{
		"point":       Point(7),
		"fair-coin":   mk(1, 1),
		"quarter":     mk(3, 1),
		"thirds":      mk(1, 2),
		"uniform6":    mk(1, 1, 1, 1, 1, 1),
		"dyadic-skew": mk(4, 2, 1, 1),
		"sevenths":    mk(1, 2, 3, 4, 5, 6, 7),
		"lopsided":    mk(997, 1, 1, 1),
		"tenths":      mk(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), // past stackTable: heap scratch
	}
}

// TestAliasMeasurePreserved pins the core alias property: the table
// assigns every support element exactly the measure the cumulative scan
// induces, up to a few ulps of table-build rounding.
func TestAliasMeasurePreserved(t *testing.T) {
	for name, d := range aliasTestDists() {
		a := BuildAlias(d)
		want := scanMeasure(d)
		got := aliasMeasure(a)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("%s: element %d alias measure %.17g, scan measure %.17g", name, i, got[i], want[i])
			}
		}
	}
}

// TestAliasPickAgreesWithTable samples a stratified grid of r values and
// checks that the empirical selection frequencies reproduce the table
// measure — i.e. Pick actually implements the table — and that every
// picked value lies in the support.
func TestAliasPickAgreesWithTable(t *testing.T) {
	const grid = 200000
	for name, d := range aliasTestDists() {
		a := BuildAlias(d)
		counts := make(map[int]int, d.Len())
		for k := 0; k < grid; k++ {
			r := (float64(k) + 0.5) / grid
			v := a.Pick(r)
			if d.P(v).Sign() <= 0 {
				t.Fatalf("%s: Pick(%v) = %v outside the support", name, r, v)
			}
			counts[v]++
		}
		want := scanMeasure(d)
		for i, v := range d.Support() {
			got := float64(counts[v]) / grid
			// A stratified grid mis-counts each boundary by at most one
			// point per column of the table.
			slack := float64(d.Len()+1) / grid
			if math.Abs(got-want[i]) > slack {
				t.Errorf("%s: element %v frequency %.6f, want %.6f (±%.6f)", name, v, got, want[i], slack)
			}
		}
	}
}

// TestAliasEdgeDraws exercises the boundary uniforms: r = 0 and r just
// below 1 must both return support elements (the truncation guard).
func TestAliasEdgeDraws(t *testing.T) {
	for name, d := range aliasTestDists() {
		a := BuildAlias(d)
		for _, r := range []float64{0, math.Nextafter(1, 0)} {
			v := a.Pick(r)
			if d.P(v).Sign() <= 0 {
				t.Errorf("%s: Pick(%v) = %v outside the support", name, r, v)
			}
		}
	}
}

func TestAliasEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick on the zero Alias did not panic")
		}
	}()
	var a Alias[int]
	a.Pick(0.5)
}

// tinyRat returns a positive rational small enough that Float64 rounds
// it to zero (below the smallest subnormal).
func tinyRat() Rat {
	r := NewRat(1, 2)
	for i := 0; i < 12; i++ { // (1/2)^(2^12) = 2^-4096 << 2^-1074
		r = r.Mul(r)
	}
	return r
}

// hugeRat returns a rational large enough that Float64 rounds it to +Inf.
func hugeRat() Rat {
	r := FromInt(2)
	for i := 0; i < 11; i++ { // 2^(2^11) = 2^2048 >> MaxFloat64
		r = r.Mul(r)
	}
	return r
}

// TestAliasDegenerateWeights drives the hardened paths with hand-built
// (invalid as probability spaces, but encounterable after Float64
// rounding) weight columns: the alias sampler must agree with the
// cumulative scan's behavior.
func TestAliasDegenerateWeights(t *testing.T) {
	tiny, huge := tinyRat(), hugeRat()
	cases := map[string]Dist[int]{
		// Every weight rounds to zero: the scan falls through to the
		// last element for every r.
		"zero-total": {support: []int{0, 1, 2}, weights: []Rat{tiny, tiny, tiny}},
		// A non-finite leading weight absorbs every draw at the scan.
		"inf-first": {support: []int{0, 1}, weights: []Rat{huge, NewRat(1, 2)}},
		// Half then an overflow: the scan splits at 1/2.
		"inf-second": {support: []int{0, 1}, weights: []Rat{NewRat(1, 2), huge}},
		// Total far past one: the scan never reaches the clamped-out tail.
		"over-unity": {support: []int{0, 1, 2}, weights: []Rat{FromInt(1), FromInt(1), FromInt(1)}},
	}
	for name, d := range cases {
		a := BuildAlias(d)
		for k := 0; k < 4096; k++ {
			r := float64(k) / 4096
			if got, want := a.Pick(r), d.Pick(r); got != want {
				t.Fatalf("%s: Alias.Pick(%v) = %v, Dist.Pick = %v", name, r, got, want)
			}
		}
	}
}

// FuzzAliasPick is the degenerate-weight hardening gate of the engine's
// sampler: random rational distributions × r values, asserting that (1)
// the alias table's per-element measure matches the scan measure and (2)
// every alias draw stays inside the support.
func FuzzAliasPick(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint16(0), uint16(0), uint16(0), uint16(0), uint64(0))
	f.Add(uint16(1), uint16(2), uint16(3), uint16(4), uint16(5), uint16(6), uint64(1)<<52)
	f.Add(uint16(997), uint16(1), uint16(1), uint16(1), uint16(0), uint16(0), ^uint64(0))
	f.Add(uint16(65535), uint16(1), uint16(0), uint16(0), uint16(0), uint16(65535), uint64(123456789))
	f.Fuzz(func(t *testing.T, k0, k1, k2, k3, k4, k5 uint16, rbits uint64) {
		ks := []uint16{k0, k1, k2, k3, k4, k5}
		total := int64(0)
		for _, k := range ks {
			total += int64(k)
		}
		if total == 0 {
			t.Skip("no support")
		}
		outs := make([]Outcome[int], 0, len(ks))
		for i, k := range ks {
			outs = append(outs, Outcome[int]{Value: i, Prob: NewRat(int64(k), total)})
		}
		d := MustDist(outs...)
		al := BuildAlias(d)

		// One fuzzed draw plus a fixed grid including both endpoints.
		rs := []float64{float64(rbits>>11) / (1 << 53), 0, math.Nextafter(1, 0)}
		for k := 1; k < 16; k++ {
			rs = append(rs, float64(k)/16)
		}
		for _, r := range rs {
			if v := al.Pick(r); d.P(v).Sign() <= 0 {
				t.Fatalf("Alias.Pick(%v) = %v outside the support (dist %v)", r, v, d)
			}
		}
		want := scanMeasure(d)
		got := aliasMeasure(al)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("element %d: alias measure %.17g, scan measure %.17g (dist %v)", i, got[i], want[i], d)
			}
		}
	})
}
