package mdp

import (
	"strings"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
)

// DenseFromAutomaton and EqualCSR expose the test oracle (oracle_test.go)
// to the identity tests in package mdp_test.
func DenseFromAutomaton[S comparable](m *pa.Automaton[S], limit int) (*MDP, *Index[S], error) {
	return fromAutomaton(m, limit)
}

func EqualCSR(c, o *CSR) error { return equalCSR(c, o) }

// solveKernel reports which kernel answers the tick-bounded solve of a
// query; the input alone selects it.
func solveKernel(m *MDP, target, from []bool, horizon int, goal Goal) (kernel, error) {
	q, err := m.newTickQuery(target, from, horizon, goal)
	if err != nil {
		return 0, err
	}
	return q.worstTicks(func(int, layer) {}), nil
}

// TickOracle and Every expose the plain tick recursion (oracle_test.go)
// and the all-states source mask (kernel_test.go) to the identity tests.
func TickOracle(m *MDP, target []bool, horizon int, goal Goal) ([][]prob.Rat, [][]int, error) {
	return tickOracle(m, target, horizon, goal)
}

func Every(n int) []bool { return every(n) }

// SettleCounts compiles MaxExpectedTicks' sweep program for target and
// reports how many of its rows settle, how many stay live, and the
// largest settle sweep.
func SettleCounts(m *MDP, target []bool) (settled, live, maxSettle int) {
	_, skip := m.pinned(target, true)
	p := m.compileSweeps(skip, true)
	for _, g := range p.groups {
		live += int(g.live - g.lo)
		settled += int(g.hi - g.live)
	}
	return settled, live, p.retire - 2
}

// SetMaxIndexForTest lowers the explorer's int32 index limit and returns
// a restore function, so a test reaches ErrIndexOverflow without 2^31
// states. The override is global: callers must not run overridden code
// in parallel with other tests' explorations.
func SetMaxIndexForTest(n int) (restore func()) {
	old := maxIndex
	maxIndex = n
	return func() { maxIndex = old }
}

// SetChunkForTest lowers the explorer's chunk size and its fan-out
// threshold and returns a restore function, so the identity tests cross
// many chunk boundaries, with overlapped expansion on goroutines, on
// small models. The override is global, like SetMaxIndexForTest's.
func SetChunkForTest(chunk, fanOut int) (restore func()) {
	oldChunk, oldFanOut := exploreChunk, exploreFanOut
	exploreChunk, exploreFanOut = chunk, fanOut
	return func() { exploreChunk, exploreFanOut = oldChunk, oldFanOut }
}

// ChunkFootprint is the explorer's state count and budget estimate after
// one merged chunk.
type ChunkFootprint struct {
	States int
	Bytes  int64
}

// ExploreFootprints is Explore, also returning the state count and
// budget estimate after every merged chunk, in merge order.
func ExploreFootprints[S comparable](auto *pa.Automaton[S], opts ExploreOptions) ([]ChunkFootprint, error) {
	var out []ChunkFootprint
	_, _, err := explore(auto, opts, func(states int, bytes int64) {
		out = append(out, ChunkFootprint{States: states, Bytes: bytes})
	})
	return out, err
}

func exportFixture() *MDP {
	return hand([][]Choice{
		{tickCoin("flip", 1, 2), moveTo("skip", 2)},
		nil,
		{tickTo("retry", 0)},
	})
}

func TestExportTra(t *testing.T) {
	var buf strings.Builder
	if err := exportFixture().ExportTra(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "3 3 4" {
		t.Errorf("header = %q, want \"3 3 4\"", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{
		"0 0 1 1/2 flip",
		"0 0 2 1/2 flip",
		"0 1 2 1 skip",
		"2 0 0 1 retry",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing transition line %q:\n%s", want, out)
		}
	}
}

func TestExportLab(t *testing.T) {
	m := exportFixture()
	var buf strings.Builder
	err := m.ExportLab(&buf, mask(3, 0), map[string][]bool{
		"target": mask(3, 1),
		"avoid":  mask(3, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != `0="init" 1="avoid" 2="target"` {
		t.Errorf("declaration line = %q", lines[0])
	}
	for _, want := range []string{"0: 0", "1: 2", "2: 1"} {
		found := false
		for _, line := range lines[1:] {
			if line == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing label line %q:\n%s", want, out)
		}
	}
}

func TestExportLabShapeErrors(t *testing.T) {
	m := exportFixture()
	var buf strings.Builder
	if err := m.ExportLab(&buf, mask(2, 0), nil); err == nil {
		t.Error("short init mask accepted")
	}
	if err := m.ExportLab(&buf, nil, map[string][]bool{"x": mask(2, 0)}); err == nil {
		t.Error("short label mask accepted")
	}
	if err := m.ExportLab(&buf, nil, nil); err != nil {
		t.Errorf("nil masks rejected: %v", err)
	}
}
