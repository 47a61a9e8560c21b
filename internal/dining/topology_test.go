package dining

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
)

func TestTopologyConstructors(t *testing.T) {
	ring := Ring(4)
	if err := ring.Validate(); err != nil {
		t.Errorf("Ring(4): %v", err)
	}
	if ring.Resources != 4 || ring.NumProcs() != 4 {
		t.Errorf("ring shape = %d res, %d procs", ring.Resources, ring.NumProcs())
	}
	// Process 0's left is resource n-1, its right resource 0.
	if ring.Left[0] != 3 || ring.Right[0] != 0 {
		t.Errorf("ring process 0 resources = (%d, %d)", ring.Left[0], ring.Right[0])
	}

	path := Path(3)
	if err := path.Validate(); err != nil {
		t.Errorf("Path(3): %v", err)
	}
	if path.Resources != 4 {
		t.Errorf("path resources = %d, want 4", path.Resources)
	}
	if path.Left[0] != 0 || path.Right[2] != 3 {
		t.Errorf("path ends = (%d, %d)", path.Left[0], path.Right[2])
	}
}

func TestTopologyValidate(t *testing.T) {
	tests := []struct {
		name string
		topo Topology
	}{
		{name: "too few processes", topo: Topology{Left: []int{0}, Right: []int{1}, Resources: 2}},
		{name: "length mismatch", topo: Topology{Left: []int{0, 1}, Right: []int{1}, Resources: 2}},
		{name: "out of range", topo: Topology{Left: []int{0, 5}, Right: []int{1, 0}, Resources: 2}},
		{name: "same resource both sides", topo: Topology{Left: []int{0, 1}, Right: []int{0, 0}, Resources: 2}},
		{
			name: "resource left of two processes",
			topo: Topology{Left: []int{0, 0}, Right: []int{1, 2}, Resources: 3},
		},
		{
			name: "resource right of two processes",
			topo: Topology{Left: []int{0, 2}, Right: []int{1, 1}, Resources: 3},
		},
		{
			name: "more resources than processes can use",
			topo: Topology{Left: []int{0, 2}, Right: []int{1, 3}, Resources: 5},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.topo.Validate(); err == nil {
				t.Error("invalid topology accepted")
			}
		})
	}
}

func TestPathEndResourcesUncontested(t *testing.T) {
	m := MustNewGeneral(Path(3))
	// Process 0 in W pointing left: resource 0 belongs only to it, so the
	// wait always succeeds regardless of the others.
	s := mk(t, "W← S→ S←")
	moves := m.Moves(s, 0)
	next, _ := moves[0].Next.IsPoint()
	if next.Local(0).PC != S {
		t.Errorf("left wait on an uncontested end resource failed: %v", next)
	}
}

func TestPathInvariantOverReachableStates(t *testing.T) {
	model := MustNewGeneral(Path(3))
	auto, err := sched.Product[State](model, sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	states, err := auto.Reachable(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("path(3) reachable product states: %d", len(states))
	for _, ps := range states {
		if !model.InvariantHolds(ps.Base) {
			t.Fatalf("invariant violated at %v", ps.Base)
		}
	}
}

// TestGeneralStepsConcurrent: the explorer runs the product's Steps on
// several goroutines at once on frontiers of 2048 states or more. Under
// -race this pins that a topology's moves only read the tables that
// construction built.
func TestGeneralStepsConcurrent(t *testing.T) {
	auto, err := sched.Product[State](MustNewGeneral(Path(3)), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	states, err := auto.Reachable(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ps := range states {
				auto.Steps(ps)
			}
		}()
	}
	wg.Wait()
}

// exploreTopology enumerates the topology's product at one step per
// window and returns it with the sets T and C.
func exploreTopology(t *testing.T, topo Topology) (*mdp.MDP, *mdp.Index[PState], core.Set[PState], core.Set[PState]) {
	t.Helper()
	auto, err := sched.Product[State](MustNewGeneral(topo), sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m, ix, core.NewSet("T", sched.LiftPred(InT)), core.NewSet("C", sched.LiftPred(InC))
}

func TestPathProgress(t *testing.T) {
	m, ix, inT, inC := exploreTopology(t, Path(3))
	r, err := core.CheckStatement(m, ix, core.Statement[PState]{
		From: inT, To: inC, Time: prob.FromInt(13), Prob: prob.NewRat(1, 8), Schema: core.UnitTimeSchema(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("path(3): %s", r)
	if !r.Holds {
		t.Errorf("T --13,1/8--> C fails on the path: %s", r)
	}

	worst, state, err := core.WorstExpectedTime(ix, inT, inC, m.MaxExpectedTicks)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("path(3) worst expected time to C: %.4f at %v", worst, state)
	if worst > 63 {
		t.Errorf("path worst expected time %.4f exceeds the ring bound 63", worst)
	}
}

// TestPathEasierThanRing quantifies the topology effect: at every horizon
// the path's worst case dominates the ring's (the open ends remove the
// symmetric livelock).
func TestPathEasierThanRing(t *testing.T) {
	ringA := getAnalysisN3(t)
	ringCurve, err := ringA.ProgressCurve(13)
	if err != nil {
		t.Fatal(err)
	}
	m, ix, inT, inC := exploreTopology(t, Path(3))
	pathCurve, err := core.WorstCaseCurve(m, ix, inT, inC, 13)
	if err != nil {
		t.Fatal(err)
	}
	for h := range ringCurve {
		if pathCurve[h].WorstProb.Less(ringCurve[h].WorstProb) {
			t.Errorf("horizon %d: path %v < ring %v", h, pathCurve[h].WorstProb, ringCurve[h].WorstProb)
		}
	}
	t.Logf("t=7: ring %v vs path %v; t=13: ring %v vs path %v",
		ringCurve[7].WorstProb, pathCurve[7].WorstProb,
		ringCurve[13].WorstProb, pathCurve[13].WorstProb)
}
