package dining

// This file addresses the second future-work direction of Section 7 of
// the paper: "it would be interesting to consider topologies that are
// more general than rings". NewGeneral runs the unmodified Lehmann–Rabin
// process code on any topology that assigns each process a left and a
// right resource — rings, open chains (paths, where the two end resources
// are uncontested), or any other two-resources-per-process layout.
//
// The state sets T, C and P depend only on local program counters, so the
// direct claims (T --t,p--> C, worst-case expected time) transfer to any
// topology; the ring-specific G-set analysis stays with the ring model.

import (
	"fmt"

	"repro/internal/sched"
)

// Topology assigns each process its two resources. Process i's left
// resource is Left[i] and its right resource is Right[i]; a resource may
// be shared by at most two processes (once as a left, once as a right),
// which is what makes the Lehmann–Rabin invariant meaningful.
type Topology struct {
	// Name labels the topology in diagnostics.
	Name string
	// Left and Right give each process's resource indices.
	Left, Right []int
	// Resources is the number of resources.
	Resources int
}

// Ring returns the paper's topology: n processes, n resources, resource i
// between processes i and i+1.
func Ring(n int) Topology {
	t := Topology{
		Name:      fmt.Sprintf("ring(%d)", n),
		Left:      make([]int, n),
		Right:     make([]int, n),
		Resources: n,
	}
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i] = ringSides(n, i)
	}
	return t
}

// ringSides returns process i's left and right resources on the n-ring.
func ringSides(n, i int) (left, right int) { return (i + n - 1) % n, i }

// Path returns an open chain: n processes, n+1 resources, process i using
// resources i (left) and i+1 (right); the outermost resources are
// uncontested.
func Path(n int) Topology {
	t := Topology{
		Name:      fmt.Sprintf("path(%d)", n),
		Left:      make([]int, n),
		Right:     make([]int, n),
		Resources: n + 1,
	}
	for i := 0; i < n; i++ {
		t.Left[i] = i
		t.Right[i] = i + 1
	}
	return t
}

// NumProcs returns the number of processes.
func (t Topology) NumProcs() int { return len(t.Left) }

// Validate checks structural sanity: matching lengths, at most 2·n
// resources (n processes use at most that many), indices in range,
// distinct resources per process, and no resource shared by more than two
// process sides (nor twice from the same side).
func (t Topology) Validate() error {
	n := len(t.Left)
	if n < 2 || n > sched.MaxProcs {
		return fmt.Errorf("dining: %d processes outside 2..%d", n, sched.MaxProcs)
	}
	if len(t.Right) != n {
		return fmt.Errorf("dining: %d left vs %d right assignments", n, len(t.Right))
	}
	if t.Resources > 2*n {
		return fmt.Errorf("dining: %d resources for %d processes, more than the %d they can use", t.Resources, n, 2*n)
	}
	leftUsed := make(map[int]bool, n)
	rightUsed := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		l, r := t.Left[i], t.Right[i]
		if l < 0 || l >= t.Resources || r < 0 || r >= t.Resources {
			return fmt.Errorf("dining: process %d resources (%d, %d) outside 0..%d", i, l, r, t.Resources-1)
		}
		if l == r {
			return fmt.Errorf("dining: process %d has identical left and right resource %d", i, l)
		}
		if leftUsed[l] {
			return fmt.Errorf("dining: resource %d is the left resource of two processes", l)
		}
		if rightUsed[r] {
			return fmt.Errorf("dining: resource %d is the right resource of two processes", r)
		}
		leftUsed[l] = true
		rightUsed[r] = true
	}
	return nil
}
