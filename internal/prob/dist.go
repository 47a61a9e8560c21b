package prob

import (
	"errors"
	"fmt"
	"slices"
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
// The weights are a column parallel to the support, so P is a scan of
// the support: the distributions the models build have a handful of
// outcomes, where a scan beats hashing and a map would cost more to
// build than the distribution itself.
//
// A Dist is immutable after construction. The zero value is an empty
// distribution, which is not a valid probability space; distributions are
// built with NewDist, Point, Uniform or Weighted.
type Dist[T comparable] struct {
	support []T
	weights []Rat // weights[i] is the probability of support[i]
}

// Shared read-only weight columns for the two commonest distributions.
var (
	pointWeights = []Rat{oneRat}
	coinWeights  = []Rat{halfRat, halfRat}
)

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
	support := make([]T, 0, len(outcomes))
	weights := make([]Rat, 0, len(outcomes))
	total := Zero()
	for _, o := range outcomes {
		if o.Prob.Sign() < 0 {
			return Dist[T]{}, fmt.Errorf("%w: negative weight %v", ErrNotADistribution, o.Prob)
		}
		if o.Prob.IsZero() {
			continue
		}
		if i := slices.Index(support, o.Value); i >= 0 {
			weights[i] = weights[i].Add(o.Prob)
		} else {
			support = append(support, o.Value)
			weights = append(weights, o.Prob)
		}
		total = total.Add(o.Prob)
	}
	if !total.IsOne() {
		return Dist[T]{}, fmt.Errorf("%w: total weight %v", ErrNotADistribution, total)
	}
	return Dist[T]{support: support, weights: weights}, nil
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
	return Dist[T]{support: []T{v}, weights: pointWeights}
}

// Uniform returns the uniform distribution over the given values. The
// values must be distinct and nonempty; otherwise an error is returned.
func Uniform[T comparable](values ...T) (Dist[T], error) {
	if len(values) == 0 {
		return Dist[T]{}, fmt.Errorf("%w: empty support", ErrNotADistribution)
	}
	for i, v := range values {
		if slices.Contains(values[:i], v) {
			return Dist[T]{}, fmt.Errorf("prob: Uniform with duplicate value %v", v)
		}
	}
	d := Dist[T]{support: slices.Clone(values)}
	switch len(values) {
	case 1:
		d.weights = pointWeights
	case 2:
		d.weights = coinWeights
	default:
		p := NewRat(1, int64(len(values)))
		d.weights = make([]Rat, len(values))
		for i := range d.weights {
			d.weights[i] = p
		}
	}
	return d, nil
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

// Weights returns the probabilities of the support, index-aligned with
// Support. It reads the distribution in place, where Outcomes copies;
// the caller must not modify the returned slice.
func (d Dist[T]) Weights() []Rat { return d.weights }

// Len returns the size of the support.
func (d Dist[T]) Len() int { return len(d.support) }

// IsValid reports whether d is a well-formed distribution (nonempty support
// summing to one). The zero Dist is not valid.
func (d Dist[T]) IsValid() bool {
	if len(d.support) == 0 {
		return false
	}
	total := Zero()
	for _, w := range d.weights {
		if w.Sign() <= 0 {
			return false
		}
		total = total.Add(w)
	}
	return total.IsOne()
}

// P returns the probability of v, which is zero when v is outside the
// support. It scans the support.
func (d Dist[T]) P(v T) Rat {
	if i := slices.Index(d.support, v); i >= 0 {
		return d.weights[i]
	}
	return Zero()
}

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
	for i, v := range d.support {
		if pred(v) {
			total = total.Add(d.weights[i])
		}
	}
	return total
}

// Outcomes returns all outcomes of d in support order.
func (d Dist[T]) Outcomes() []Outcome[T] {
	out := make([]Outcome[T], len(d.support))
	for i, v := range d.support {
		out[i] = Outcome[T]{Value: v, Prob: d.weights[i]}
	}
	return out
}

// Map applies f to every value in the support, merging values that f
// identifies. The result is always a valid distribution when d is. When
// f merges nothing, the result shares d's weight column: both are
// immutable, and an injective f (a scheduler product relabelling its
// base model's outcomes) then costs one allocation, not two.
func MapDist[T, U comparable](d Dist[T], f func(T) U) Dist[U] {
	support := make([]U, 0, len(d.support))
	var weights []Rat // nil until f merges two values
	for i, v := range d.support {
		u := f(v)
		j := slices.Index(support, u)
		switch {
		case j < 0:
			support = append(support, u)
			if weights != nil {
				weights = append(weights, d.weights[i])
			}
		case weights == nil:
			weights = append(make([]Rat, 0, len(d.support)), d.weights[:i]...)
			fallthrough
		default:
			weights[j] = weights[j].Add(d.weights[i])
		}
	}
	if weights == nil {
		weights = d.weights
	}
	return Dist[U]{support: support, weights: weights}
}

// Product returns the independent product distribution of a and b.
func Product[T, U comparable](a Dist[T], b Dist[U]) Dist[Pair[T, U]] {
	n := len(a.support) * len(b.support)
	out := Dist[Pair[T, U]]{support: make([]Pair[T, U], 0, n), weights: make([]Rat, 0, n)}
	for i, v := range a.support {
		for j, w := range b.support {
			out.support = append(out.support, Pair[T, U]{First: v, Second: w})
			out.weights = append(out.weights, a.weights[i].Mul(b.weights[j]))
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
	for i, v := range d.support {
		acc += d.weights[i].Float64()
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
		parts[i] = fmt.Sprintf("%v:%v", v, d.weights[i])
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
