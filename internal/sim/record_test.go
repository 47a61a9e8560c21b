package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
)

// recordTestDists are the distributions the outcome-record tests draw
// from: every support size from 1 to 10 (past prob's stack-built tables
// at 8), uniform and skewed, plus weights whose float64 images are
// degenerate — a rational too small for a float64 rounds to zero, so its
// column keeps nothing, or a near-one weight rounds to exactly one.
// Support values are offset from their indices, so a test that mixed up
// an index and a successor would notice.
func recordTestDists() map[string]prob.Dist[int] {
	tiny := prob.NewRat(1, 2)
	for i := 0; i < 12; i++ { // (1/2)^(2^12) = 2^-4096, below the smallest subnormal
		tiny = tiny.Mul(tiny)
	}
	mk := func(ws ...prob.Rat) prob.Dist[int] {
		outs := make([]prob.Outcome[int], len(ws))
		for i, w := range ws {
			outs[i] = prob.Outcome[int]{Value: 100 + i, Prob: w}
		}
		return prob.MustDist(outs...)
	}
	ratio := func(nums ...int64) prob.Dist[int] {
		total := int64(0)
		for _, k := range nums {
			total += k
		}
		ws := make([]prob.Rat, len(nums))
		for i, k := range nums {
			ws[i] = prob.NewRat(k, total)
		}
		return mk(ws...)
	}
	one := prob.One()
	dists := map[string]prob.Dist[int]{
		"quarter":      ratio(3, 1),
		"dyadic-skew":  ratio(4, 2, 1, 1),
		"lopsided":     ratio(997, 1, 1, 1),
		"tiny-first":   mk(tiny, one.Sub(tiny)),
		"tiny-last":    mk(one.Sub(tiny), tiny),
		"two-tiny":     mk(tiny, one.Sub(tiny).Sub(tiny), tiny),
		"tiny-in-half": mk(prob.Half(), tiny, prob.Half().Sub(tiny)),
	}
	for n := 1; n <= 10; n++ {
		values := make([]int, n)
		skew := make([]int64, n)
		for i := range values {
			values[i] = 100 + i
			skew[i] = int64(i + 1)
		}
		dists[fmt.Sprintf("uniform%d", n)] = prob.MustUniform(values...)
		dists[fmt.Sprintf("ramp%d", n)] = ratio(skew...)
	}
	return dists
}

// TestRecordPickMatchesAlias: a move's outcome records draw exactly what
// the alias table they are built from draws — the same support index and
// the same successor — on a 10^4-point grid of r, at 0 and the largest
// float64 below 1, and on both sides of every column's start and of
// every column's keep threshold.
func TestRecordPickMatchesAlias(t *testing.T) {
	for name, d := range recordTestDists() {
		m := newSamplers([]pa.Step[int]{{Action: "draw", Next: d}})[0]
		a := prob.BuildAlias(d)
		n := len(m)
		if n != d.Len() {
			t.Fatalf("%s: %d records for a support of %d", name, n, d.Len())
		}
		rs := []float64{0, math.Nextafter(1, 0)}
		for k := 0; k < 10_000; k++ {
			rs = append(rs, float64(k)/10_000)
		}
		for c := 0; c < n; c++ {
			keep, _ := a.Column(c)
			for _, edge := range []float64{float64(c) / float64(n), (float64(c) + keep) / float64(n)} {
				rs = append(rs, math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1))
			}
		}
		for _, r := range rs {
			if r < 0 || r >= 1 {
				continue
			}
			want := a.PickIndex(r)
			o := m.pick(r)
			got := -1
			for i := range m {
				if &m[i] == o {
					got = i
				}
			}
			if got != want || o.next != d.Support()[want] {
				t.Fatalf("%s: r=%v: record %d (successor %d), alias index %d (successor %d)",
					name, r, got, o.next, want, d.Support()[want])
			}
		}
	}
}
