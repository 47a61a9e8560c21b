// Package prob provides exact rational arithmetic and finite probability
// distributions, the numeric substrate for the probabilistic-automaton
// framework of Lynch, Saias and Segala (PODC 1994).
//
// All probabilities in the framework are exact rationals so that checked
// bounds such as "probability at least 1/8 within time 13" are reproduced
// without floating-point slack. Rat wraps math/big.Rat with immutable value
// semantics: every operation returns a fresh value and never mutates its
// operands, so Rat values may be freely shared, stored in maps and compared.
package prob

import (
	"fmt"
	"math/big"
)

// Rat is an immutable arbitrary-precision rational number.
//
// The zero value of Rat is the number 0 and is ready to use.
type Rat struct {
	// r is nil for zero; otherwise it is never mutated after creation.
	r *big.Rat
}

// Common constants. They are package-level for convenience; Rat is
// immutable, so sharing them is safe.
var (
	zeroRat = Rat{}
	oneRat  = NewRat(1, 1)
	halfRat = NewRat(1, 2)
)

// Zero returns the rational 0.
func Zero() Rat { return zeroRat }

// One returns the rational 1.
func One() Rat { return oneRat }

// Half returns the rational 1/2.
func Half() Rat { return halfRat }

// NewRat returns the rational num/den. It panics if den is zero; this is a
// programmer error on par with an out-of-range slice index.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("prob: NewRat with zero denominator")
	}
	if num == 0 {
		return Rat{}
	}
	return Rat{r: big.NewRat(num, den)}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return NewRat(n, 1) }

// FromBig returns a Rat equal to r. The argument is copied; later mutation
// of r does not affect the result. A nil argument yields 0.
func FromBig(r *big.Rat) Rat {
	if r == nil || r.Sign() == 0 {
		return Rat{}
	}
	return Rat{r: new(big.Rat).Set(r)}
}

// own wraps a freshly computed *big.Rat that nothing else references,
// without copying it: the arithmetic methods hand their results here.
func own(r *big.Rat) Rat {
	if r.Sign() == 0 {
		return Rat{}
	}
	return Rat{r: r}
}

// ParseRat parses a rational from a string such as "3/8", "1", "0.25" or
// "-7/2". It accepts every form accepted by big.Rat.SetString.
func ParseRat(s string) (Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("prob: cannot parse rational %q", s)
	}
	return own(r), nil
}

// MustParseRat is like ParseRat but panics on malformed input. It is meant
// for constants in tests and examples.
func MustParseRat(s string) Rat {
	r, err := ParseRat(s)
	if err != nil {
		panic(err)
	}
	return r
}

// bigZero is the read-only *big.Rat that big hands out for the zero Rat.
var bigZero = new(big.Rat)

// big returns the receiver as a *big.Rat that must not be mutated.
func (x Rat) big() *big.Rat {
	if x.r == nil {
		return bigZero
	}
	return x.r
}

// Big returns a copy of x as a *big.Rat. The caller owns the result.
func (x Rat) Big() *big.Rat { return new(big.Rat).Set(x.big()) }

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.r == nil {
		return y
	}
	if y.r == nil {
		return x
	}
	return own(new(big.Rat).Add(x.r, y.r))
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat {
	if y.r == nil {
		return x
	}
	return own(new(big.Rat).Sub(x.big(), y.r))
}

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat {
	if x.r == nil || y.r == nil {
		return Rat{}
	}
	return own(new(big.Rat).Mul(x.r, y.r))
}

// Div returns x / y. It panics if y is zero, mirroring integer division.
func (x Rat) Div(y Rat) Rat {
	if y.r == nil {
		panic("prob: division by zero Rat")
	}
	if x.r == nil {
		return Rat{}
	}
	return own(new(big.Rat).Quo(x.r, y.r))
}

// Neg returns -x.
func (x Rat) Neg() Rat {
	if x.r == nil {
		return Rat{}
	}
	return own(new(big.Rat).Neg(x.r))
}

// Inv returns 1/x. It panics if x is zero.
func (x Rat) Inv() Rat {
	if x.r == nil {
		panic("prob: inverse of zero Rat")
	}
	return own(new(big.Rat).Inv(x.r))
}

// Cmp compares x and y and returns -1, 0, or +1. A zero or shared
// operand is decided without big.Rat.Cmp, which allocates.
func (x Rat) Cmp(y Rat) int {
	switch {
	case x.r == y.r:
		return 0
	case y.r == nil:
		return x.r.Sign()
	case x.r == nil:
		return -y.r.Sign()
	}
	return x.r.Cmp(y.r)
}

// Equal reports whether x == y as rational numbers. big.Rat keeps its
// values normalized, so it compares numerators and denominators, which
// allocates nothing (big.Rat.Cmp cross-multiplies).
func (x Rat) Equal(y Rat) bool {
	switch {
	case x.r == y.r:
		return true
	case x.r == nil || y.r == nil:
		return false
	}
	return x.r.Num().Cmp(y.r.Num()) == 0 && x.r.Denom().Cmp(y.r.Denom()) == 0
}

// Less reports whether x < y.
func (x Rat) Less(y Rat) bool { return x.Cmp(y) < 0 }

// LessEq reports whether x <= y.
func (x Rat) LessEq(y Rat) bool { return x.Cmp(y) <= 0 }

// Sign returns -1, 0, or +1 according to the sign of x.
func (x Rat) Sign() int {
	if x.r == nil {
		return 0
	}
	return x.r.Sign()
}

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.Sign() == 0 }

// IsOne reports whether x == 1.
func (x Rat) IsOne() bool { return x.Equal(oneRat) }

// IsProbability reports whether 0 <= x <= 1.
func (x Rat) IsProbability() bool {
	return x.Sign() >= 0 && x.Cmp(oneRat) <= 0
}

// Min returns the smaller of x and y.
func (x Rat) Min(y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func (x Rat) Max(y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// maxExactInt is 2^53: every integer of at most this magnitude is a
// float64.
const maxExactInt = 1 << 53

// Float64 returns the nearest float64 value to x. When the numerator and
// the denominator are both floats exactly, one IEEE division rounds the
// quotient correctly, as big.Rat.Float64 does, without its allocations.
func (x Rat) Float64() float64 {
	if x.r == nil {
		return 0
	}
	num, den := x.r.Num(), x.r.Denom()
	if num.IsInt64() && den.IsInt64() {
		if n, d := num.Int64(), den.Int64(); -maxExactInt <= n && n <= maxExactInt && d <= maxExactInt {
			return float64(n) / float64(d)
		}
	}
	f, _ := x.r.Float64()
	return f
}

// String formats x as "num/den", or as "num" when the denominator is 1.
func (x Rat) String() string {
	return x.big().RatString()
}

// MarshalText implements encoding.TextMarshaler, emitting the canonical
// "num/den" form; together with UnmarshalText it makes Rat round-trip
// through JSON and other textual encodings without precision loss.
func (x Rat) MarshalText() ([]byte, error) {
	return []byte(x.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (x *Rat) UnmarshalText(text []byte) error {
	r, err := ParseRat(string(text))
	if err != nil {
		return err
	}
	*x = r
	return nil
}

// SumRats returns the sum of all arguments.
func SumRats(xs ...Rat) Rat {
	sum := new(big.Rat)
	for _, x := range xs {
		if x.r != nil {
			sum.Add(sum, x.r)
		}
	}
	return own(sum)
}

// MinRats returns the minimum of its arguments. It panics when called with
// no arguments.
func MinRats(xs ...Rat) Rat {
	if len(xs) == 0 {
		panic("prob: MinRats of empty list")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = m.Min(x)
	}
	return m
}

// MaxRats returns the maximum of its arguments. It panics when called with
// no arguments.
func MaxRats(xs ...Rat) Rat {
	if len(xs) == 0 {
		panic("prob: MaxRats of empty list")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = m.Max(x)
	}
	return m
}

// ProdRats returns the product of all arguments, or 1 for no arguments.
func ProdRats(xs ...Rat) Rat {
	p := oneRat
	for _, x := range xs {
		if x.IsZero() {
			return Rat{}
		}
		p = p.Mul(x)
	}
	return p
}
