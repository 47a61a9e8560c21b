package prob

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrNotADistribution is returned when weights are negative or do not sum
// to one.
var ErrNotADistribution = errors.New("prob: weights do not form a probability distribution")

// Dist is a finite discrete probability distribution over values of type T.
// It corresponds to the probability spaces (Ω, F, P) of Definition 2.1 of
// the paper, where Ω is finite and F = 2^Ω.
//
// A Dist is immutable after construction. The zero value is an empty
// distribution, which is not a valid probability space; distributions are
// built with NewDist, Point, Uniform or Weighted.
type Dist[T comparable] struct {
	support []T
	weight  map[T]Rat
}

// Outcome pairs a value with its probability.
type Outcome[T comparable] struct {
	Value T
	Prob  Rat
}

// NewDist builds a distribution from explicit outcomes. Outcomes with zero
// probability are dropped; duplicate values have their probabilities added.
// It returns ErrNotADistribution when any weight is negative or the total
// is not exactly one.
func NewDist[T comparable](outcomes ...Outcome[T]) (Dist[T], error) {
	d := Dist[T]{weight: make(map[T]Rat, len(outcomes))}
	total := Zero()
	for _, o := range outcomes {
		if o.Prob.Sign() < 0 {
			return Dist[T]{}, fmt.Errorf("%w: negative weight %v", ErrNotADistribution, o.Prob)
		}
		if o.Prob.IsZero() {
			continue
		}
		if _, seen := d.weight[o.Value]; !seen {
			d.support = append(d.support, o.Value)
		}
		d.weight[o.Value] = d.weight[o.Value].Add(o.Prob)
		total = total.Add(o.Prob)
	}
	if !total.IsOne() {
		return Dist[T]{}, fmt.Errorf("%w: total weight %v", ErrNotADistribution, total)
	}
	return d, nil
}

// MustDist is like NewDist but panics on invalid input. It is meant for
// statically-known distributions in models, tests and examples.
func MustDist[T comparable](outcomes ...Outcome[T]) Dist[T] {
	d, err := NewDist(outcomes...)
	if err != nil {
		panic(err)
	}
	return d
}

// Point returns the Dirac distribution concentrated on v.
func Point[T comparable](v T) Dist[T] {
	return Dist[T]{
		support: []T{v},
		weight:  map[T]Rat{v: One()},
	}
}

// Uniform returns the uniform distribution over the given values. The
// values must be distinct and nonempty; otherwise an error is returned.
func Uniform[T comparable](values ...T) (Dist[T], error) {
	if len(values) == 0 {
		return Dist[T]{}, fmt.Errorf("%w: empty support", ErrNotADistribution)
	}
	p := NewRat(1, int64(len(values)))
	outcomes := make([]Outcome[T], 0, len(values))
	seen := make(map[T]bool, len(values))
	for _, v := range values {
		if seen[v] {
			return Dist[T]{}, fmt.Errorf("prob: Uniform with duplicate value %v", v)
		}
		seen[v] = true
		outcomes = append(outcomes, Outcome[T]{Value: v, Prob: p})
	}
	return NewDist(outcomes...)
}

// MustUniform is like Uniform but panics on invalid input.
func MustUniform[T comparable](values ...T) Dist[T] {
	d, err := Uniform(values...)
	if err != nil {
		panic(err)
	}
	return d
}

// FlipRat returns the two-point distribution assigning p to heads and 1-p
// to tails.
func FlipRat[T comparable](heads T, p Rat, tails T) (Dist[T], error) {
	return NewDist(
		Outcome[T]{Value: heads, Prob: p},
		Outcome[T]{Value: tails, Prob: One().Sub(p)},
	)
}

// Support returns the support of d in insertion order. The caller must not
// modify the returned slice.
func (d Dist[T]) Support() []T { return d.support }

// Len returns the size of the support.
func (d Dist[T]) Len() int { return len(d.support) }

// IsValid reports whether d is a well-formed distribution (nonempty support
// summing to one). The zero Dist is not valid.
func (d Dist[T]) IsValid() bool {
	if len(d.support) == 0 {
		return false
	}
	total := Zero()
	for _, v := range d.support {
		w := d.weight[v]
		if w.Sign() <= 0 {
			return false
		}
		total = total.Add(w)
	}
	return total.IsOne()
}

// P returns the probability of v, which is zero when v is outside the
// support.
func (d Dist[T]) P(v T) Rat { return d.weight[v] }

// IsPoint reports whether d is a Dirac distribution, and if so on which
// value.
func (d Dist[T]) IsPoint() (T, bool) {
	if len(d.support) == 1 {
		return d.support[0], true
	}
	var zero T
	return zero, false
}

// ProbOf returns the total probability of the event described by the
// predicate, i.e. P[{v : pred(v)}].
func (d Dist[T]) ProbOf(pred func(T) bool) Rat {
	total := Zero()
	for _, v := range d.support {
		if pred(v) {
			total = total.Add(d.weight[v])
		}
	}
	return total
}

// Outcomes returns all outcomes of d in support order.
func (d Dist[T]) Outcomes() []Outcome[T] {
	out := make([]Outcome[T], len(d.support))
	for i, v := range d.support {
		out[i] = Outcome[T]{Value: v, Prob: d.weight[v]}
	}
	return out
}

// Map applies f to every value in the support, merging values that f
// identifies. The result is always a valid distribution when d is.
func MapDist[T, U comparable](d Dist[T], f func(T) U) Dist[U] {
	out := Dist[U]{weight: make(map[U]Rat, len(d.support))}
	for _, v := range d.support {
		u := f(v)
		if _, seen := out.weight[u]; !seen {
			out.support = append(out.support, u)
		}
		out.weight[u] = out.weight[u].Add(d.weight[v])
	}
	return out
}

// Product returns the independent product distribution of a and b.
func Product[T, U comparable](a Dist[T], b Dist[U]) Dist[Pair[T, U]] {
	out := Dist[Pair[T, U]]{weight: make(map[Pair[T, U]]Rat, len(a.support)*len(b.support))}
	for _, v := range a.support {
		for _, w := range b.support {
			pair := Pair[T, U]{First: v, Second: w}
			out.support = append(out.support, pair)
			out.weight[pair] = a.weight[v].Mul(b.weight[w])
		}
	}
	return out
}

// Pair is an ordered pair, used by Product.
type Pair[T, U comparable] struct {
	First  T
	Second U
}

// Pick selects an outcome of d using r, a number in [0, 1), by walking the
// support in order and accumulating weights. It is the bridge between the
// exact framework and Monte Carlo simulation: callers draw r from their own
// random source.
func (d Dist[T]) Pick(r float64) T {
	if len(d.support) == 0 {
		panic("prob: Pick on empty distribution")
	}
	acc := 0.0
	for _, v := range d.support {
		acc += d.weight[v].Float64()
		if r < acc {
			return v
		}
	}
	return d.support[len(d.support)-1]
}

// String formats the distribution as "{v1:p1, v2:p2, ...}" with values
// ordered by their formatted representation, so the output is stable across
// runs for any comparable type.
func (d Dist[T]) String() string {
	parts := make([]string, len(d.support))
	for i, v := range d.support {
		parts[i] = fmt.Sprintf("%v:%v", v, d.weight[v])
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
