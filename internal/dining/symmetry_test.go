package dining

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/prob"
	"repro/internal/sched"
)

// ringImage applies the ring's group element (rot, mirror) to a product
// state: process i moves to rot+i, or with mirror to rot−i with its
// direction swapped, carrying its owes bit and budget along (mod n).
func ringImage(ps PState, rot int, mirror bool) PState {
	n := ps.Base.N()
	var out PState
	out.Base.n = ps.Base.n
	for i := 0; i < n; i++ {
		j := mod(rot+i, n)
		l := ps.Base.Local(i)
		if mirror {
			j = mod(rot-i, n)
			l.U = l.U.Opp()
		}
		out.Base.locals[j] = packLocal(l)
		out.Owes |= (ps.Owes >> i & 1) << j
		out.Left |= (ps.Left >> (4 * i) & 0xF) << (4 * j)
	}
	return out
}

// FuzzRingSymmetry walks the full n-ring product (n = 2..5, k = 1..3)
// along the fuzzer's choices to a reachable state s and applies one
// group element g. Canonicalization must be idempotent and constant on
// s's orbit, |orbit|·|stabilizer| must be 2n, the six named sets must
// not tell s from g·s, and the steps of s and of g·s, each successor
// replaced by its representative, must be the same distributions with
// the same tick flags.
func FuzzRingSymmetry(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(1), true)
	f.Add(uint8(2), uint8(2), []byte{9, 9, 9, 1, 0, 3}, uint8(0), true)
	f.Add(uint8(4), uint8(3), []byte{5, 4, 3, 2, 1, 0, 7, 7, 7, 2, 2, 2}, uint8(3), false)
	f.Add(uint8(5), uint8(1), []byte{1, 3, 5, 7, 9, 11, 13, 15, 2, 4, 6, 8}, uint8(2), true)
	f.Fuzz(func(t *testing.T, nb, kb uint8, path []byte, rot uint8, mirror bool) {
		n, k := 2+int(nb)%4, 1+int(kb)%3
		if len(path) > 64 {
			path = path[:64]
		}
		model := MustNew(n)
		full, err := fullProduct(model, k)
		if err != nil {
			t.Fatal(err)
		}
		quot, err := sched.Product(model, sched.Config{StepsPerWindow: k})
		if err != nil {
			t.Fatal(err)
		}
		s := full.Start[0]
		for _, b := range path {
			steps := full.Steps(s)
			st := steps[int(b)%len(steps)]
			sup := st.Next.Support()
			s = sup[int(b>>4)%len(sup)]
		}
		g := ringImage(s, int(rot)%n, mirror)

		c := sched.Canon[State](model, s)
		if cc := sched.Canon[State](model, c); cc != c {
			t.Fatalf("canon not idempotent: %v -> %v -> %v", s, c, cc)
		}
		if cg := sched.Canon[State](model, g); cg != c {
			t.Fatalf("canon differs on one orbit: %v -> %v, its image %v -> %v", s, c, g, cg)
		}
		images := map[PState]bool{}
		stab := 0
		for r := 0; r < n; r++ {
			for _, m := range []bool{false, true} {
				im := ringImage(s, r, m)
				images[im] = true
				if im == s {
					stab++
				}
			}
		}
		if !images[c] {
			t.Fatalf("representative %v of %v is not one of its images", c, s)
		}
		orbit := quot.Orbit(c)
		if orbit*stab != 2*n || orbit != len(images) {
			t.Fatalf("%v: orbit %d, stabilizer %d, %d distinct images, group of order %d", s, orbit, stab, len(images), 2*n)
		}

		for name, in := range map[string]func(State) bool{"T": InT, "C": InC, "RT": InRT, "F": InF, "G": InG, "P": InP} {
			if in(s.Base) != in(g.Base) {
				t.Fatalf("set %s tells %v from its image %v", name, s.Base, g.Base)
			}
		}

		// view renders the steps of ps as the quotient sees them: per
		// step its tick flag and its distribution over representatives
		// (branches into one orbit added), sorted so that the steps of
		// two states that are images of each other render alike.
		view := func(ps PState) []string {
			var out []string
			for _, st := range full.Steps(ps) {
				merged := map[PState]prob.Rat{}
				for j, y := range st.Next.Support() {
					key := sched.Canon[State](model, y)
					merged[key] = merged[key].Add(st.Next.Weights()[j])
				}
				var branches []string
				for y, p := range merged {
					branches = append(branches, fmt.Sprintf("%v:%v", y, p))
				}
				slices.Sort(branches)
				out = append(out, fmt.Sprintf("tick=%t %v", st.Action == sched.TickAction, branches))
			}
			slices.Sort(out)
			return out
		}
		if vs, vg := view(s), view(g); !slices.Equal(vs, vg) {
			t.Fatalf("steps of %v and of its image %v differ up to symmetry:\n%v\n%v", s, g, vs, vg)
		}
	})
}
