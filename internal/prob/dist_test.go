package prob

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewDist(t *testing.T) {
	tests := []struct {
		name     string
		outcomes []Outcome[string]
		wantErr  bool
	}{
		{
			name: "fair coin",
			outcomes: []Outcome[string]{
				{Value: "heads", Prob: Half()},
				{Value: "tails", Prob: Half()},
			},
		},
		{
			name:     "point",
			outcomes: []Outcome[string]{{Value: "x", Prob: One()}},
		},
		{
			name: "duplicates merge",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: Half()},
				{Value: "x", Prob: Half()},
			},
		},
		{
			name: "zero weights dropped",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: One()},
				{Value: "y", Prob: Zero()},
			},
		},
		{
			name: "under one",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: Half()},
			},
			wantErr: true,
		},
		{
			name: "over one",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: One()},
				{Value: "y", Prob: Half()},
			},
			wantErr: true,
		},
		{
			name: "negative",
			outcomes: []Outcome[string]{
				{Value: "x", Prob: NewRat(3, 2)},
				{Value: "y", Prob: NewRat(-1, 2)},
			},
			wantErr: true,
		},
		{
			name:    "empty",
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := NewDist(tt.outcomes...)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("NewDist = %v, want error", d)
				}
				if !errors.Is(err, ErrNotADistribution) {
					t.Errorf("error %v is not ErrNotADistribution", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewDist: %v", err)
			}
			if !d.IsValid() {
				t.Errorf("distribution %v is not valid", d)
			}
		})
	}
}

func TestDistAccessors(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "a", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "b", Prob: NewRat(3, 4)},
	)
	if got := d.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	if got := d.P("a"); !got.Equal(NewRat(1, 4)) {
		t.Errorf("P(a) = %v, want 1/4", got)
	}
	if got := d.P("missing"); !got.IsZero() {
		t.Errorf("P(missing) = %v, want 0", got)
	}
	if _, ok := d.IsPoint(); ok {
		t.Error("two-point distribution reported as point")
	}
	if v, ok := Point("only").IsPoint(); !ok || v != "only" {
		t.Errorf("Point.IsPoint = %q, %t", v, ok)
	}
	got := d.ProbOf(func(s string) bool { return s == "a" || s == "b" })
	if !got.IsOne() {
		t.Errorf("ProbOf(all) = %v, want 1", got)
	}
}

func TestUniform(t *testing.T) {
	d, err := Uniform(1, 2, 3, 4)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	for _, v := range []int{1, 2, 3, 4} {
		if got := d.P(v); !got.Equal(NewRat(1, 4)) {
			t.Errorf("P(%d) = %v, want 1/4", v, got)
		}
	}
	if _, err := Uniform[int](); err == nil {
		t.Error("Uniform() on empty support succeeded")
	}
	if _, err := Uniform(1, 1); err == nil {
		t.Error("Uniform with duplicates succeeded")
	}
}

func TestFlipRat(t *testing.T) {
	d, err := FlipRat("h", NewRat(1, 3), "t")
	if err != nil {
		t.Fatalf("FlipRat: %v", err)
	}
	if got := d.P("t"); !got.Equal(NewRat(2, 3)) {
		t.Errorf("P(t) = %v, want 2/3", got)
	}
	if _, err := FlipRat("h", NewRat(3, 2), "t"); err == nil {
		t.Error("FlipRat with p > 1 succeeded")
	}
}

func TestMapDist(t *testing.T) {
	d := MustUniform(1, 2, 3, 4)
	even := MapDist(d, func(n int) bool { return n%2 == 0 })
	if got := even.P(true); !got.Equal(Half()) {
		t.Errorf("P(even) = %v, want 1/2", got)
	}
	if !even.IsValid() {
		t.Error("mapped distribution is invalid")
	}
}

func TestProduct(t *testing.T) {
	coin := MustUniform("h", "t")
	die := MustUniform(1, 2, 3)
	prod := Product(coin, die)
	if got := prod.Len(); got != 6 {
		t.Errorf("product support size = %d, want 6", got)
	}
	if got := prod.P(Pair[string, int]{First: "h", Second: 2}); !got.Equal(NewRat(1, 6)) {
		t.Errorf("P(h,2) = %v, want 1/6", got)
	}
	if !prod.IsValid() {
		t.Error("product distribution is invalid")
	}
}

func TestPick(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "a", Prob: NewRat(1, 4)},
		Outcome[string]{Value: "b", Prob: NewRat(3, 4)},
	)
	tests := []struct {
		r    float64
		want string
	}{
		{r: 0.0, want: "a"},
		{r: 0.2, want: "a"},
		{r: 0.25, want: "b"},
		{r: 0.99, want: "b"},
	}
	for _, tt := range tests {
		if got := d.Pick(tt.r); got != tt.want {
			t.Errorf("Pick(%g) = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestDistString(t *testing.T) {
	d := MustDist(
		Outcome[string]{Value: "b", Prob: Half()},
		Outcome[string]{Value: "a", Prob: Half()},
	)
	if got, want := d.String(), "{a:1/2, b:1/2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestDistProperties(t *testing.T) {
	t.Run("uniform over distinct ints is valid", func(t *testing.T) {
		f := func(vals []int16) bool {
			seen := map[int16]bool{}
			var distinct []int16
			for _, v := range vals {
				if !seen[v] {
					seen[v] = true
					distinct = append(distinct, v)
				}
			}
			if len(distinct) == 0 {
				return true
			}
			d, err := Uniform(distinct...)
			return err == nil && d.IsValid()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("MapDist preserves total mass", func(t *testing.T) {
		f := func(vals []int16) bool {
			seen := map[int16]bool{}
			var distinct []int16
			for _, v := range vals {
				if !seen[v] {
					seen[v] = true
					distinct = append(distinct, v)
				}
			}
			if len(distinct) == 0 {
				return true
			}
			d := MustUniform(distinct...)
			mapped := MapDist(d, func(v int16) int16 { return v / 3 })
			return mapped.IsValid()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestDistAllocs pins, as maxima, what building the distributions and
// samplers of a model step costs: a point mass and a fair coin share
// their weight columns, and a point mass needs no alias columns.
func TestDistAllocs(t *testing.T) {
	coin, point := MustUniform(1, 2), Point(7)
	var d Dist[int]
	var a Alias[int]
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Point", 1, func() { d = Point(7) }},
		{"MustUniform of two values", 2, func() { d = MustUniform(1, 2) }},
		{"MapDist of a coin", 2, func() { d = MapDist(coin, func(v int) int { return 2 * v }) }},
		{"BuildAlias of a point", 0, func() { a = BuildAlias(point) }},
		{"BuildAlias of a coin", 2, func() { a = BuildAlias(coin) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
	_, _ = d, a
}

// refDist is the map-keyed distribution Dist replaced, kept as the
// reference FuzzDistBuild compares against: support in first-seen order,
// weights merged through the map.
type refDist[T comparable] struct {
	support []T
	weight  map[T]Rat
}

func refNewDist[T comparable](outcomes []Outcome[T]) (refDist[T], error) {
	d := refDist[T]{weight: map[T]Rat{}}
	total := Zero()
	for _, o := range outcomes {
		if o.Prob.Sign() < 0 {
			return refDist[T]{}, ErrNotADistribution
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
		return refDist[T]{}, ErrNotADistribution
	}
	return d, nil
}

func refMapDist[T, U comparable](d refDist[T], f func(T) U) refDist[U] {
	out := refDist[U]{weight: map[U]Rat{}}
	for _, v := range d.support {
		u := f(v)
		if _, seen := out.weight[u]; !seen {
			out.support = append(out.support, u)
		}
		out.weight[u] = out.weight[u].Add(d.weight[v])
	}
	return out
}

var errDuplicate = errors.New("duplicate value")

func refUniform[T comparable](values []T) (refDist[T], error) {
	if len(values) == 0 {
		return refDist[T]{}, ErrNotADistribution
	}
	outs := make([]Outcome[T], len(values))
	for i, v := range values {
		for _, u := range values[:i] {
			if u == v {
				return refDist[T]{}, errDuplicate
			}
		}
		outs[i] = Outcome[T]{Value: v, Prob: NewRat(1, int64(len(values)))}
	}
	return refNewDist(outs)
}

// errClass buckets an error the way callers can tell errors apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNotADistribution):
		return "ErrNotADistribution"
	}
	return "other"
}

// checkSame requires got to equal the reference: the same support in the
// same order, the same P for every probe value, and Outcomes and
// IsValid agreeing with both.
func checkSame[T comparable](t *testing.T, what string, got Dist[T], want refDist[T], probes []T) {
	t.Helper()
	if len(got.Support()) != len(want.support) {
		t.Fatalf("%s: support %v, want %v", what, got.Support(), want.support)
	}
	for i, v := range want.support {
		if got.Support()[i] != v {
			t.Fatalf("%s: support %v, want %v", what, got.Support(), want.support)
		}
		if o := got.Outcomes()[i]; o.Value != v || !o.Prob.Equal(want.weight[v]) {
			t.Fatalf("%s: outcome %d = %v, want %v:%v", what, i, o, v, want.weight[v])
		}
	}
	for _, v := range probes {
		if !got.P(v).Equal(want.weight[v]) {
			t.Fatalf("%s: P(%v) = %v, want %v", what, v, got.P(v), want.weight[v])
		}
	}
	if !got.IsValid() {
		t.Fatalf("%s: %v is not valid", what, got)
	}
}

// FuzzDistBuild drives NewDist, MapDist and Uniform with byte-built
// outcomes — repeated values, zero and negative weights, supports from
// one value to a few dozen — against the map-keyed reference.
func FuzzDistBuild(f *testing.F) {
	const values = 48 // outcome values are drawn from [0, values)
	f.Add([]byte{0, 1, 2, 1})
	f.Add([]byte{1, 5, 2, 5, 5, 0, 3, 2})
	long := []byte{0}
	for v := 0; v < values; v++ {
		long = append(long, byte(v), 2) // distinct values, weight 1
	}
	for v := 0; v < values; v += 2 {
		long = append(long, byte(v), 3, byte(v+1), 1) // repeats with weight 2, zeros
	}
	f.Add(long)
	f.Add(append([]byte{1}, long[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// data[0] bit 0 picks raw weights k/4, which rarely sum to one,
		// over weights normalized by their total. Each following byte pair
		// is one outcome: a value in [0, values) and a numerator in
		// {-1, 0, 1, 2, 3}.
		raw := data[0]&1 == 1
		pairs := data[1:]
		nums, total := make([]int64, 0, len(pairs)/2), int64(0)
		for i := 0; i+1 < len(pairs); i += 2 {
			k := int64(pairs[i+1]%5) - 1
			nums = append(nums, k)
			if k > 0 {
				total += k
			}
		}
		den := int64(4)
		if !raw && total > 0 {
			den = total
		}
		outs := make([]Outcome[int], len(nums))
		vals := make([]int, len(nums))
		for i, k := range nums {
			vals[i] = int(pairs[2*i]) % values
			outs[i] = Outcome[int]{Value: vals[i], Prob: NewRat(k, den)}
		}
		probes := make([]int, values+1)
		for v := range probes {
			probes[v] = v
		}

		got, err := NewDist(outs...)
		want, werr := refNewDist(outs)
		if errClass(err) != errClass(werr) {
			t.Fatalf("NewDist error %v, reference %v", err, werr)
		}
		if err == nil {
			checkSame(t, "NewDist", got, want, probes)
			third := func(v int) int { return v / 3 }
			checkSame(t, "MapDist(v/3)", MapDist(got, third), refMapDist(want, third), probes)
			neg := func(v int) int { return -v }
			checkSame(t, "MapDist(-v)", MapDist(got, neg), refMapDist(want, neg), append(probes, -1, -2, -values))
		}

		got, err = Uniform(vals...)
		want, werr = refUniform(vals)
		if errClass(err) != errClass(werr) {
			t.Fatalf("Uniform error %v, reference %v", err, werr)
		}
		if err == nil {
			checkSame(t, "Uniform", got, want, probes)
		}
		var distinct []int
		seen := map[int]bool{}
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				distinct = append(distinct, v)
			}
		}
		if len(distinct) > 0 {
			want, werr = refUniform(distinct)
			if werr != nil {
				t.Fatal(werr)
			}
			u := MustUniform(distinct...)
			checkSame(t, "Uniform(distinct)", u, want, probes)
			// A merge must never write into its input's shared column.
			third := func(v int) int { return v / 3 }
			checkSame(t, "MapDist(Uniform, v/3)", MapDist(u, third), refMapDist(want, third), probes)
			checkSame(t, "Uniform(distinct) after MapDist", u, want, probes)
		}
	})
}
