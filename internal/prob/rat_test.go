package prob

import (
	"encoding/json"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewRat(t *testing.T) {
	tests := []struct {
		name     string
		num, den int64
		want     string
	}{
		{name: "simple", num: 1, den: 2, want: "1/2"},
		{name: "reduced", num: 2, den: 4, want: "1/2"},
		{name: "integer", num: 6, den: 3, want: "2"},
		{name: "zero", num: 0, den: 5, want: "0"},
		{name: "negative", num: -3, den: 9, want: "-1/3"},
		{name: "negative denominator", num: 1, den: -2, want: "-1/2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NewRat(tt.num, tt.den).String(); got != tt.want {
				t.Errorf("NewRat(%d, %d) = %s, want %s", tt.num, tt.den, got, tt.want)
			}
		})
	}
}

func TestNewRatZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRat(1, 0) did not panic")
		}
	}()
	NewRat(1, 0)
}

func TestParseRat(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "3/8", want: "3/8"},
		{in: "1", want: "1"},
		{in: "0.25", want: "1/4"},
		{in: "-7/2", want: "-7/2"},
		{in: "", wantErr: true},
		{in: "x/y", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseRat(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseRat(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseRat(%q): %v", tt.in, err)
			}
			if got.String() != tt.want {
				t.Errorf("ParseRat(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestRatArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Rat
		want string
	}{
		{name: "add", got: NewRat(1, 2).Add(NewRat(1, 3)), want: "5/6"},
		{name: "add zero left", got: Zero().Add(NewRat(2, 7)), want: "2/7"},
		{name: "add zero right", got: NewRat(2, 7).Add(Zero()), want: "2/7"},
		{name: "sub", got: NewRat(1, 2).Sub(NewRat(1, 3)), want: "1/6"},
		{name: "sub to negative", got: NewRat(1, 3).Sub(NewRat(1, 2)), want: "-1/6"},
		{name: "mul", got: NewRat(2, 3).Mul(NewRat(3, 4)), want: "1/2"},
		{name: "mul by zero", got: NewRat(2, 3).Mul(Zero()), want: "0"},
		{name: "div", got: NewRat(1, 2).Div(NewRat(1, 4)), want: "2"},
		{name: "neg", got: NewRat(3, 5).Neg(), want: "-3/5"},
		{name: "neg zero", got: Zero().Neg(), want: "0"},
		{name: "inv", got: NewRat(3, 5).Inv(), want: "5/3"},
		{name: "min", got: NewRat(1, 2).Min(NewRat(1, 3)), want: "1/3"},
		{name: "max", got: NewRat(1, 2).Max(NewRat(1, 3)), want: "1/2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.got.String(); got != tt.want {
				t.Errorf("got %s, want %s", got, tt.want)
			}
		})
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One().Div(Zero())
}

func TestRatInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	Zero().Inv()
}

func TestRatPredicates(t *testing.T) {
	if !Zero().IsZero() {
		t.Error("Zero().IsZero() = false")
	}
	if !One().IsOne() {
		t.Error("One().IsOne() = false")
	}
	if Half().IsOne() || Half().IsZero() {
		t.Error("Half() misclassified")
	}
	for _, x := range []Rat{Zero(), Half(), One()} {
		if !x.IsProbability() {
			t.Errorf("%v.IsProbability() = false", x)
		}
	}
	for _, x := range []Rat{NewRat(-1, 2), NewRat(3, 2)} {
		if x.IsProbability() {
			t.Errorf("%v.IsProbability() = true", x)
		}
	}
}

func TestRatCmp(t *testing.T) {
	tests := []struct {
		a, b Rat
		want int
	}{
		{a: Zero(), b: Zero(), want: 0},
		{a: Zero(), b: One(), want: -1},
		{a: One(), b: Zero(), want: 1},
		{a: NewRat(2, 4), b: Half(), want: 0},
		{a: NewRat(-1, 2), b: Zero(), want: -1},
	}
	for _, tt := range tests {
		if got := tt.a.Cmp(tt.b); got != tt.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	if got := SumRats(Half(), NewRat(1, 4), NewRat(1, 4)); !got.IsOne() {
		t.Errorf("SumRats = %v, want 1", got)
	}
	if got := SumRats(); !got.IsZero() {
		t.Errorf("SumRats() = %v, want 0", got)
	}
	if got := MinRats(Half(), NewRat(1, 8), One()); !got.Equal(NewRat(1, 8)) {
		t.Errorf("MinRats = %v, want 1/8", got)
	}
	if got := MaxRats(Half(), NewRat(1, 8), One()); !got.IsOne() {
		t.Errorf("MaxRats = %v, want 1", got)
	}
	if got := ProdRats(Half(), Half(), Half()); !got.Equal(NewRat(1, 8)) {
		t.Errorf("ProdRats = %v, want 1/8", got)
	}
	if got := ProdRats(); !got.IsOne() {
		t.Errorf("ProdRats() = %v, want 1", got)
	}
}

func TestFromBigCopies(t *testing.T) {
	src := big.NewRat(1, 3)
	r := FromBig(src)
	src.SetInt64(7)
	if got := r.String(); got != "1/3" {
		t.Errorf("FromBig aliased its argument: got %s, want 1/3", got)
	}
}

func TestRatTextRoundTrip(t *testing.T) {
	type payload struct {
		P Rat `json:"p"`
	}
	in := payload{P: NewRat(15, 16)}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"p":"15/16"}` {
		t.Errorf("marshal = %s", data)
	}
	var out payload
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.P.Equal(in.P) {
		t.Errorf("round-trip = %v", out.P)
	}
	if err := json.Unmarshal([]byte(`{"p":"x/y"}`), &out); err == nil {
		t.Error("malformed rational accepted")
	}

	// Zero value marshals as "0".
	zeroData, err := json.Marshal(payload{})
	if err != nil {
		t.Fatal(err)
	}
	if string(zeroData) != `{"p":"0"}` {
		t.Errorf("zero marshal = %s", zeroData)
	}
}

// ratFromPair builds a bounded random rational from two int32 values,
// keeping testing/quick inputs well away from overflow concerns.
func ratFromPair(num int32, den int32) Rat {
	d := int64(den)
	if d == 0 {
		d = 1
	}
	if d < 0 {
		d = -d
	}
	return NewRat(int64(num), d)
}

func TestRatProperties(t *testing.T) {
	t.Run("add commutes", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			return x.Add(y).Equal(y.Add(x))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul distributes over add", func(t *testing.T) {
		f := func(a1, a2, b1, b2, c1, c2 int32) bool {
			x, y, z := ratFromPair(a1, a2), ratFromPair(b1, b2), ratFromPair(c1, c2)
			return x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("sub then add round-trips", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			return x.Sub(y).Add(y).Equal(x)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("operations do not mutate operands", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			xs, ys := x.String(), y.String()
			_ = x.Add(y)
			_ = x.Mul(y)
			_ = x.Sub(y)
			return x.String() == xs && y.String() == ys
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("min max order", func(t *testing.T) {
		f := func(a1, a2, b1, b2 int32) bool {
			x, y := ratFromPair(a1, a2), ratFromPair(b1, b2)
			return x.Min(y).LessEq(x.Max(y))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestRatAllocs pins the allocations of the operations the rational
// solvers run per branch: arithmetic wraps its fresh result instead of
// copying it, a comparison with a zero operand allocates nothing, and a
// word-sized Float64 is one division.
func TestRatAllocs(t *testing.T) {
	x, y := NewRat(3, 8), NewRat(5, 7)
	var sink Rat
	var less bool
	var f float64
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Mul", 5, func() { sink = x.Mul(y) }},
		{"Add", 7, func() { sink = x.Add(y) }},
		{"Sub from zero", 6, func() { sink = Zero().Sub(x) }},
		{"Less with a zero left operand", 0, func() { less = Zero().Less(x) }},
		{"Less with a zero right operand", 0, func() { less = x.Less(Zero()) }},
		{"Equal", 0, func() { less = x.Equal(y) }},
		{"Float64 of 1/2", 0, func() { f = Half().Float64() }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
	_, _, _ = sink, less, f
}

// TestRatFloat64MatchesBig: Float64's one-division path must round
// exactly as big.Rat.Float64 does, at and past the 2^53 edge where it
// hands over, and for random int64 fractions on both sides of it.
func TestRatFloat64MatchesBig(t *testing.T) {
	check := func(num, den int64) bool {
		if den == 0 {
			return true
		}
		want, _ := big.NewRat(num, den).Float64()
		return NewRat(num, den).Float64() == want
	}
	const e = maxExactInt
	for _, c := range [][2]int64{
		{1, 2}, {1, 3}, {-2, 3}, {0, 5}, {e, 3}, {-e, 3}, {1, e}, {e - 1, e},
		{e + 1, 3}, {3, e + 1}, {-e - 1, 7}, {1<<62 + 1, 3}, {1, 1<<62 + 1},
	} {
		if !check(c[0], c[1]) {
			t.Errorf("Float64(%d/%d) differs from big.Rat", c[0], c[1])
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	small := func(num, den int32) bool { return check(int64(num), int64(den)) }
	if err := quick.Check(small, nil); err != nil {
		t.Error(err)
	}
}
