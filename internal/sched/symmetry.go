package sched

// This file quotients the product by a model's process symmetry. A
// ring's processes can be relabelled by rotating every index, and, for
// Lehmann–Rabin, by reflecting the indices while swapping each process's
// left and right: such a relabelling maps every step of the product to a
// step with the same probabilities and durations, since the scheduler
// treats all processes alike. Product then emits one representative per
// orbit of the group, and every optimal value of the product is the
// value of its state's representative (Kwiatkowska, Norman & Parker, CAV
// 2006).

import "slices"

// Symmetric is implemented by a model whose processes sit on a ring
// that relabelling maps onto itself. The group is the ring's dihedral
// group of order 2n acting on process indices: a rotation moves process
// i to i+r, a reflection moves it to r−i (mod n) and swaps its sides.
// Product quotients the product of a model whose Ring reports true;
// every other model explores every product state.
type Symmetric[S comparable] interface {
	Model[S]
	// Ring reports whether every rotation of the process indices, and
	// every reflection that also swaps each process's sides, maps the
	// model onto itself.
	Ring() bool
	// Locals returns each process's local state in s as a byte that
	// determines it, and each process's byte after swapping its sides.
	Locals(s S) (locals, mirrored [MaxProcs]uint8)
	// WithLocals returns the state whose process i is in the local
	// state locals[i] names.
	WithLocals(locals [MaxProcs]uint8) S
}

// Unreduced returns m with its symmetry hidden: Product(Unreduced(m),
// cfg) explores every product state, as output that names states of
// the full product (a PRISM export, a witness schedule) and the tests
// of the quotient need.
func Unreduced[S comparable](m Model[S]) Model[S] { return unreduced[S]{m} }

type unreduced[S comparable] struct{ Model[S] }

// Canon returns the state Product(m, cfg) emits for the product state
// ps: its orbit's representative, or ps itself when m has no symmetry.
func Canon[S comparable](m Model[S], ps State[S]) State[S] {
	return ringOf(m).canon(ps)
}

// ring is the symmetry group of a Symmetric model's product: the n
// rotations and the n reflections. A nil *ring is the trivial group of
// a model without symmetry.
type ring[S comparable] struct {
	m Symmetric[S]
	n int
}

// ringOf returns m's symmetry group, or nil when it has none.
func ringOf[S comparable](m Model[S]) *ring[S] {
	sm, ok := m.(Symmetric[S])
	if !ok || !sm.Ring() {
		return nil
	}
	return &ring[S]{m: sm, n: sm.NumProcs()}
}

// images lays out a product state's per-process tuples — local state,
// owes bit, budget nibble, packed as local<<5 | owes<<4 | budget — so
// that every group element's image is a window of n tuples: rot[r:r+n]
// is the rotation that moves process r to index 0, and ref[r:r+n] a
// reflection (ref holds the mirrored tuples in reverse). Both are laid
// out twice over, so no window wraps.
type images struct {
	rot, ref [2 * MaxProcs]uint16
}

// fill lays out ps's images in im.
func (r *ring[S]) fill(im *images, ps State[S]) {
	locals, mirrored := r.m.Locals(ps.Base)
	n := r.n
	for i := 0; i < n; i++ {
		w := uint16(ps.Owes>>i&1)<<4 | uint16(left(ps.Left, i))
		im.rot[i] = uint16(locals[i])<<5 | w
		im.rot[i+n] = im.rot[i]
		j := n - 1 - i
		im.ref[j] = uint16(mirrored[i])<<5 | w
		im.ref[j+n] = im.ref[j]
	}
}

// canon returns the least image of ps under the group, tuple by tuple
// from process 0. Windows are compared lazily, so most images are
// rejected at their first tuple; ps itself is returned when it is the
// least, and by the trivial group.
func (r *ring[S]) canon(ps State[S]) State[S] {
	if r == nil {
		return ps
	}
	var im images
	r.fill(&im, ps)
	n := r.n
	best := im.rot[:n]
	for at := 1; at < n; at++ {
		if w := im.rot[at : at+n]; before(w, best) {
			best = w
		}
	}
	for at := 0; at < n; at++ {
		if w := im.ref[at : at+n]; before(w, best) {
			best = w
		}
	}
	if &best[0] == &im.rot[0] {
		return ps
	}
	var locals [MaxProcs]uint8
	out := State[S]{}
	for j, t := range best {
		locals[j] = uint8(t >> 5)
		out.Owes |= uint16(t>>4&1) << j
		out.Left |= uint64(t&0xF) << (4 * j)
	}
	out.Base = r.m.WithLocals(locals)
	return out
}

// before reports whether window a sorts before window b, reading no
// further than their first difference.
func before(a, b []uint16) bool {
	for i, x := range a {
		if y := b[i]; x != y {
			return x < y
		}
	}
	return false
}

// orbit returns the size of ps's orbit: the group's order over the
// number of its elements that fix ps (orbit–stabilizer).
func (r *ring[S]) orbit(ps State[S]) int {
	var im images
	r.fill(&im, ps)
	n := r.n
	id := im.rot[:n]
	fixed := 1
	for at := 1; at < n; at++ {
		if slices.Equal(im.rot[at:at+n], id) {
			fixed++
		}
	}
	for at := 0; at < n; at++ {
		if slices.Equal(im.ref[at:at+n], id) {
			fixed++
		}
	}
	return 2 * n / fixed
}
