package dining

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/prob"
	"repro/internal/sched"
)

// mk builds a state from a compact spec like "F W← S→ R"; panics on bad
// specs (test helper).
func mk(t *testing.T, spec string) State {
	t.Helper()
	fields := strings.Fields(spec)
	locals := make([]Local, len(fields))
	for i, f := range fields {
		var l Local
		switch {
		case strings.HasSuffix(f, "←"):
			l.U = Left
			f = strings.TrimSuffix(f, "←")
		case strings.HasSuffix(f, "→"):
			l.U = Right
			f = strings.TrimSuffix(f, "→")
		}
		switch f {
		case "R":
			l.PC = R
		case "F":
			l.PC = F
		case "W":
			l.PC = W
		case "S":
			l.PC = S
		case "D":
			l.PC = D
		case "P":
			l.PC = P
		case "C":
			l.PC = C
		case "EF":
			l.PC = EF
		case "ES":
			l.PC = ES
		case "ER":
			l.PC = ER
		default:
			t.Fatalf("bad local spec %q", f)
		}
		locals[i] = l
	}
	s, err := NewState(locals...)
	if err != nil {
		t.Fatalf("NewState(%q): %v", spec, err)
	}
	return s
}

// TestActionNames pins the action-name table: kind_i for every kind and
// process index, built once, and the same spelling, formatted on demand,
// for an index outside the table.
func TestActionNames(t *testing.T) {
	want := []string{"flip", "wait", "second", "drop", "crit", "dropf", "drops", "rem", "try", "exit"}
	for k, kind := range want {
		for _, i := range []int{0, 7, sched.MaxProcs - 1, sched.MaxProcs, -1} {
			if got, w := actionName(actionKind(k), i), kind+"_"+strconv.Itoa(i); got != w {
				t.Errorf("actionName(%d, %d) = %q, want %q", k, i, got, w)
			}
		}
	}
	if got := FlipAction(3); got != "flip_3" {
		t.Errorf("FlipAction(3) = %q, want flip_3", got)
	}
}

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(Local{PC: R}); err == nil {
		t.Error("single process accepted")
	}
	if _, err := NewState(Local{PC: W}, Local{PC: R}); err == nil {
		t.Error("W without direction accepted")
	}
	// Directions are canonicalized where irrelevant.
	s, err := NewState(Local{PC: F, U: Left}, Local{PC: R, U: Right})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	if got := s.Local(0).U; got != None {
		t.Errorf("u at F = %v, want canonical None", got)
	}
	if got := s.Local(1).U; got != None {
		t.Errorf("u at R = %v, want canonical None", got)
	}
}

func TestStateString(t *testing.T) {
	s := mk(t, "W← S→ F")
	if got, want := s.String(), "[W← S→ F]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestWrapNegative(t *testing.T) {
	s := mk(t, "R F W←")
	if got := s.Local(-1).PC; got != W {
		t.Errorf("Local(-1) = %v, want W", got)
	}
	if got := s.Local(3).PC; got != R {
		t.Errorf("Local(3) = %v, want R", got)
	}
}

func TestResTaken(t *testing.T) {
	tests := []struct {
		name string
		spec string
		res  int
		want bool
	}{
		{name: "all idle", spec: "R R R", res: 0, want: false},
		{name: "S→ holds its right resource", spec: "S→ R R", res: 0, want: true},
		{name: "S→ does not hold its left", spec: "S→ R R", res: 2, want: false},
		{name: "S← holds its left resource", spec: "R S← R", res: 0, want: true},
		{name: "W holds nothing", spec: "W→ W← R", res: 0, want: false},
		{name: "critical holds both", spec: "R C R", res: 0, want: true},
		{name: "critical holds both (right)", spec: "R C R", res: 1, want: true},
		{name: "P holds both", spec: "P R R", res: 0, want: true},
		{name: "EF holds both", spec: "R R EF", res: 1, want: true},
		{name: "ES→ still holds right", spec: "ES→ R R", res: 0, want: true},
		{name: "ES← released right", spec: "ES← R R", res: 0, want: false},
		{name: "D→ still holds right", spec: "D→ R R", res: 0, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := mk(t, tt.spec).ResTaken(tt.res); got != tt.want {
				t.Errorf("ResTaken(%d) in %s = %t, want %t", tt.res, tt.spec, got, tt.want)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) accepted")
	}
	if _, err := New(sched.MaxProcs + 1); err == nil {
		t.Error("oversized ring accepted")
	}
	if m, err := New(3); err != nil || m.NumProcs() != 3 {
		t.Errorf("New(3) = %v, %v", m, err)
	}
}

func TestStart(t *testing.T) {
	m := MustNew(4)
	starts := m.Start()
	if len(starts) != 1 {
		t.Fatalf("got %d start states, want 1", len(starts))
	}
	for i := 0; i < 4; i++ {
		if got := starts[0].Local(i).PC; got != R {
			t.Errorf("start local %d = %v, want R", i, got)
		}
	}
}

func TestFlipMove(t *testing.T) {
	m := MustNew(3)
	s := mk(t, "F R R")
	moves := m.Moves(s, 0)
	if len(moves) != 1 {
		t.Fatalf("got %d moves at F, want 1", len(moves))
	}
	mv := moves[0]
	if mv.Action != "flip_0" {
		t.Errorf("action = %q, want flip_0", mv.Action)
	}
	wantL := mk(t, "W← R R")
	wantR := mk(t, "W→ R R")
	if !mv.Next.P(wantL).Equal(prob.Half()) || !mv.Next.P(wantR).Equal(prob.Half()) {
		t.Errorf("flip distribution = %v, want 1/2 each on W←/W→", mv.Next)
	}
}

func TestWaitMove(t *testing.T) {
	m := MustNew(3)
	tests := []struct {
		name string
		spec string
		proc int
		want string
	}{
		{
			// Process 0 waits for its right resource Res_0; process 1
			// holds its own right resource Res_1, so Res_0 is free.
			name: "right free",
			spec: "W→ S→ R",
			proc: 0,
			want: "[S→ S→ R]",
		},
		{
			// Process 1 holds its left resource Res_0, blocking process 0.
			name: "right taken blocks",
			spec: "W→ S← R",
			proc: 0,
			want: "[W→ S← R]",
		},
		{
			name: "left free",
			spec: "W← R R",
			proc: 0,
			want: "[S← R R]",
		},
		{
			// Process 2 (process 0's left neighbour) holds its right
			// resource Res_2, which is process 0's left resource.
			name: "left taken blocks",
			spec: "W← R S→",
			proc: 0,
			want: "[W← R S→]",
		},
		{
			name: "neighbour in critical blocks",
			spec: "W→ C R",
			proc: 0,
			want: "[W→ C R]",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := mk(t, tt.spec)
			moves := m.Moves(s, tt.proc)
			if len(moves) != 1 {
				t.Fatalf("got %d moves, want 1", len(moves))
			}
			next, ok := moves[0].Next.IsPoint()
			if !ok {
				t.Fatalf("wait move not deterministic: %v", moves[0].Next)
			}
			if got := next.String(); got != tt.want {
				t.Errorf("wait from %s = %s, want %s", tt.spec, got, tt.want)
			}
		})
	}
}

func TestSecondMove(t *testing.T) {
	m := MustNew(3)
	tests := []struct {
		name string
		spec string
		proc int
		want string
	}{
		{
			// Process 0 at S→ holds Res_0, checks left Res_2: free.
			name: "second free enters P",
			spec: "S→ R R",
			proc: 0,
			want: "[P R R]",
		},
		{
			// Process 2 at S→ holds Res_2, which is process 0's left
			// resource (its second when pointing right): check fails.
			name: "second taken goes to D",
			spec: "S→ R S→",
			proc: 0,
			want: "[D→ R S→]",
		},
		{
			name: "second taken left case",
			spec: "S← S← R",
			proc: 0,
			want: "[D← S← R]",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := mk(t, tt.spec)
			moves := m.Moves(s, tt.proc)
			if len(moves) != 1 {
				t.Fatalf("got %d moves, want 1", len(moves))
			}
			next, ok := moves[0].Next.IsPoint()
			if !ok {
				t.Fatalf("second move not deterministic")
			}
			if got := next.String(); got != tt.want {
				t.Errorf("second from %s = %s, want %s", tt.spec, got, tt.want)
			}
		})
	}
}

func TestDeterministicChainMoves(t *testing.T) {
	m := MustNew(2)
	tests := []struct {
		spec       string
		proc       int
		wantAction string
		wantState  string
	}{
		{spec: "D→ R", proc: 0, wantAction: "drop_0", wantState: "[F R]"},
		{spec: "P R", proc: 0, wantAction: "crit_0", wantState: "[C R]"},
		{spec: "ES← R", proc: 0, wantAction: "drops_0", wantState: "[ER R]"},
		{spec: "ER R", proc: 0, wantAction: "rem_0", wantState: "[R R]"},
	}
	for _, tt := range tests {
		t.Run(tt.wantAction, func(t *testing.T) {
			s := mk(t, tt.spec)
			moves := m.Moves(s, tt.proc)
			if len(moves) != 1 {
				t.Fatalf("got %d moves, want 1", len(moves))
			}
			if moves[0].Action != tt.wantAction {
				t.Errorf("action = %q, want %q", moves[0].Action, tt.wantAction)
			}
			next, _ := moves[0].Next.IsPoint()
			if got := next.String(); got != tt.wantState {
				t.Errorf("next = %s, want %s", got, tt.wantState)
			}
		})
	}
}

func TestExitFirstDropIsNondeterministic(t *testing.T) {
	m := MustNew(2)
	s := mk(t, "EF R")
	moves := m.Moves(s, 0)
	if len(moves) != 2 {
		t.Fatalf("got %d moves at EF, want 2 (nondeterministic choice)", len(moves))
	}
	got := map[string]bool{}
	for _, mv := range moves {
		next, _ := mv.Next.IsPoint()
		got[next.String()] = true
	}
	if !got["[ES→ R]"] || !got["[ES← R]"] {
		t.Errorf("dropf successors = %v, want ES→ and ES←", got)
	}
}

func TestUserMoves(t *testing.T) {
	m := MustNew(2)
	tryMoves := m.UserMoves(mk(t, "R R"), 0)
	if len(tryMoves) != 1 || tryMoves[0].Action != "try_0" {
		t.Fatalf("UserMoves at R = %v, want try_0", tryMoves)
	}
	next, _ := tryMoves[0].Next.IsPoint()
	if got := next.String(); got != "[F R]" {
		t.Errorf("try leads to %s, want [F R]", got)
	}

	exitMoves := m.UserMoves(mk(t, "C R"), 0)
	if len(exitMoves) != 1 || exitMoves[0].Action != "exit_0" {
		t.Fatalf("UserMoves at C = %v, want exit_0", exitMoves)
	}
	next, _ = exitMoves[0].Next.IsPoint()
	if got := next.String(); got != "[EF R]" {
		t.Errorf("exit leads to %s, want [EF R]", got)
	}

	if got := m.UserMoves(mk(t, "F R"), 0); got != nil {
		t.Errorf("UserMoves at F = %v, want none", got)
	}
}

func TestReadiness(t *testing.T) {
	m := MustNew(2)
	ready := map[string]bool{
		"R R": false, "C R": false,
		"F R": true, "W← R": true, "S← R": true, "D← R": true,
		"P R": true, "EF R": true, "ES← R": true, "ER R": true,
	}
	for spec, want := range ready {
		if got := len(m.Moves(mk(t, spec), 0)) > 0; got != want {
			t.Errorf("process 0 ready in %s = %t, want %t", spec, got, want)
		}
	}
}

// TestInvariantOverReachableStates explores the full digitized product for
// n = 3 and checks Lemma 6.1's mutual-exclusion invariant in every
// reachable state — the paper's "standard proof of invariants" done
// mechanically.
func TestInvariantOverReachableStates(t *testing.T) {
	model := MustNew(3)
	auto, err := sched.Product[State](model, sched.Config{StepsPerWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	states, err := auto.Reachable(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no reachable states")
	}
	t.Logf("reachable product states (n=3, k=1): %d", len(states))
	for _, ps := range states {
		if !model.InvariantHolds(ps.Base) {
			t.Fatalf("Lemma 6.1 invariant violated in reachable state %v", ps.Base)
		}
	}
}

// TestNoDoubleHoldEverywhere double-checks the invariant checker itself on
// a state built to violate it.
func TestNoDoubleHoldEverywhere(t *testing.T) {
	model := MustNew(3)
	bad := mk(t, "S→ S← R") // both hold Res_0
	if model.InvariantHolds(bad) {
		t.Error("violating state reported as satisfying the invariant")
	}
	good := mk(t, "S→ S→ R")
	if !model.InvariantHolds(good) {
		t.Error("valid state reported as violating the invariant")
	}
}
