package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// userFlip is a one-process model with both an algorithm move and a user
// move, so compiled runs exercise the user-move sampling path: the user
// move "arm"s the process, the algorithm move then flips until heads.
type ufState struct {
	Armed bool
	Heads bool
}

type userFlip struct{}

func (userFlip) Name() string     { return "user-flip" }
func (userFlip) NumProcs() int    { return 1 }
func (userFlip) Start() []ufState { return []ufState{{}} }

func (userFlip) Moves(s ufState, i int) []pa.Step[ufState] {
	if !s.Armed || s.Heads {
		return nil
	}
	return []pa.Step[ufState]{{
		Action: "flip",
		Next: prob.MustDist(
			prob.Outcome[ufState]{Value: ufState{Armed: true, Heads: true}, Prob: prob.Half()},
			prob.Outcome[ufState]{Value: ufState{Armed: true}, Prob: prob.Half()},
		),
	}}
}

func (userFlip) UserMoves(s ufState, i int) []pa.Step[ufState] {
	if s.Armed {
		return nil
	}
	return []pa.Step[ufState]{{Action: "arm", Next: prob.Point(ufState{Armed: true})}}
}

var _ sched.Model[ufState] = userFlip{}

// mkUserFlip arms the process with the user move when nothing is ready,
// then plays the slowest legal schedule.
func mkUserFlip() Policy[ufState] {
	return PolicyFunc[ufState](func(v *View[ufState], _ *rand.Rand) (Choice, bool) {
		if len(v.Ready) > 0 {
			return Choice{Proc: v.Ready[0], Move: 0, At: v.DeadlineMin}, true
		}
		if len(v.UserMovers) > 0 {
			return Choice{Proc: v.UserMovers[0], Move: 0, User: true, At: v.Now}, true
		}
		return Choice{}, false
	})
}

func ufHeads(s ufState) bool { return s.Heads }

func TestCompileIdentityAndIdempotence(t *testing.T) {
	c, err := Compile[flipState](flipper{})
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Compile[flipState](c); again != c || err != nil {
		t.Errorf("Compile(Compile(m)) = %p, %v; want the same compiled model %p", again, err, c)
	}
	if got, err := Compile[flipState](nil); got != nil || !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("Compile(nil) = %v, %v; want nil, ErrInvalidArgument", got, err)
	}
	if c.Name() != "flipper" || c.NumProcs() != 1 {
		t.Errorf("compiled model delegation: name %q procs %d", c.Name(), c.NumProcs())
	}
}

// impureModel violates the sched.Model purity contract: every Moves call
// returns a different action name.
type impureModel struct{ calls atomic.Int64 }

func (m *impureModel) Name() string       { return "impure" }
func (m *impureModel) NumProcs() int      { return 1 }
func (m *impureModel) Start() []flipState { return []flipState{{}} }

func (m *impureModel) Moves(s flipState, i int) []pa.Step[flipState] {
	if s.Heads {
		return nil
	}
	action := "even"
	if m.calls.Add(1)%2 == 1 {
		action = "odd"
	}
	return []pa.Step[flipState]{{Action: action, Next: prob.Point(flipState{Heads: true})}}
}

func (m *impureModel) UserMoves(flipState, int) []pa.Step[flipState] { return nil }

// panickyModel panics on any Moves query.
type panickyModel struct{}

func (panickyModel) Name() string                                  { return "panicky" }
func (panickyModel) NumProcs() int                                 { return 1 }
func (panickyModel) Start() []flipState                            { return []flipState{{}} }
func (panickyModel) Moves(flipState, int) []pa.Step[flipState]     { panic("model bug") }
func (panickyModel) UserMoves(flipState, int) []pa.Step[flipState] { return nil }

// TestCompileRejectsImpure: a model that fails the purity spot check —
// its repeated queries disagree, or a query panics — is a typed
// ErrImpureModel from Compile and from both engine entry points, which
// compile whatever they are given; no trial runs.
func TestCompileRejectsImpure(t *testing.T) {
	for _, m := range []sched.Model[flipState]{&impureModel{}, panickyModel{}} {
		if cm, err := Compile(m); cm != nil || !errors.Is(err, ErrImpureModel) {
			t.Errorf("Compile(%s) = %v, %v; want ErrImpureModel", m.Name(), cm, err)
		}
		if _, err := RunOnce(m, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(1))); !errors.Is(err, ErrImpureModel) {
			t.Errorf("RunOnce(%s) err = %v, want ErrImpureModel", m.Name(), err)
		}
		_, rep, err := EstimateReachProbParallel(context.Background(), m, mkSlowest, heads, 2, 100,
			Options[flipState]{}, ParallelOptions{Seed: 1, MaxPanics: 5})
		if !errors.Is(err, ErrImpureModel) || rep.Completed != 0 || rep.Quarantined != 0 {
			t.Errorf("RunParallel(%s) = %v, %v; want ErrImpureModel before any trial", m.Name(), rep, err)
		}
	}
}

// TestCompiledBitIdentical: every trial of the engine equals the
// uncompiled oracle's run of it, at every identity seed and worker count
// — on a plain coin and a model with user moves (the skewed coin is
// TestBitCompatParallelMatchesUncompiled).
func TestCompiledBitIdentical(t *testing.T) {
	const trials = 256
	checkOracleIdentity[flipState](t, flipper{}, mkSlowest, heads, Options[flipState]{}, trials)
	checkOracleIdentity[ufState](t, userFlip{}, mkUserFlip, ufHeads, Options[ufState]{}, trials)
}

// TestCompiledRunOnceMatchesUncompiled drives RunOnce directly with a
// pre-compiled model: the full Result must match the oracle's for the
// same seed, including step counts and final states.
func TestCompiledRunOnceMatchesUncompiled(t *testing.T) {
	cm, err := Compile[ufState](userFlip{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		want, err1 := oracleRun[ufState](userFlip{}, mkUserFlip(), ufHeads, Options[ufState]{}, rand.New(rand.NewSource(seed)))
		got, err2 := RunOnce[ufState](cm, mkUserFlip(), ufHeads, Options[ufState]{}, rand.New(rand.NewSource(seed)))
		if err1 != nil || err2 != nil {
			t.Fatalf("seed=%d: errs %v / %v", seed, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d: compiled result %+v != oracle %+v", seed, got, want)
		}
	}
}

// TestCompiledInterruptResume: a run interrupted mid-flight and resumed
// on another worker count runs every trial exactly as the oracle does.
func TestCompiledInterruptResume(t *testing.T) {
	const trials = 640
	checkOracleResume[flipState](t, flipper{}, mkSlowest, heads, Options[flipState]{}, trials)
	checkOracleResume[ufState](t, userFlip{}, mkUserFlip, ufHeads, Options[ufState]{}, trials)
	checkOracleResume[flipState](t, skewFlip{}, mkSlowest, heads, Options[flipState]{}, trials)
}

// badDist is a hand-built model whose only step embeds the zero
// prob.Dist — historically a Pick panic deep in the engine.
type badDist struct{}

func (badDist) Name() string       { return "bad-dist" }
func (badDist) NumProcs() int      { return 1 }
func (badDist) Start() []flipState { return []flipState{{}} }

func (badDist) Moves(s flipState, i int) []pa.Step[flipState] {
	if s.Heads {
		return nil
	}
	return []pa.Step[flipState]{{Action: "broken"}} // zero-value Next
}

func (badDist) UserMoves(flipState, int) []pa.Step[flipState] { return nil }

// TestBadModelEmptyDist: an empty successor distribution is a typed,
// wrappable ErrBadModel from RunOnce and RunParallel — not a quarantined
// panic.
func TestBadModelEmptyDist(t *testing.T) {
	_, err := RunOnce[flipState](badDist{}, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, ErrBadModel) {
		t.Fatalf("RunOnce err = %v, want ErrBadModel", err)
	}
	var pe *TrialPanicError
	if errors.As(err, &pe) {
		t.Fatalf("empty distribution was quarantined as a panic: %v", err)
	}

	_, rep, err := EstimateReachProbParallel[flipState](context.Background(), badDist{}, mkSlowest, heads, 2, 100,
		Options[flipState]{}, ParallelOptions{Seed: 1, MaxPanics: 5})
	if !errors.Is(err, ErrBadModel) {
		t.Errorf("parallel err = %v, want ErrBadModel", err)
	}
	if rep.Quarantined != 0 {
		t.Errorf("%d trials quarantined; ErrBadModel must not consume the panic budget", rep.Quarantined)
	}
}

// TestMetricsBatchCallPattern: the hook sees exactly one batch per
// committed chunk, a ragged last chunk included, and the batches add up
// to the trial, reach and step totals the run's own observe callback saw.
func TestMetricsBatchCallPattern(t *testing.T) {
	const trials = 300 // 4 full chunks + one ragged chunk of 44
	// Uninstrumented reference: the totals the batches must reproduce.
	ref, _, err := countRun(3, trials, ParallelOptions{Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	var bm countingMetrics
	got, rep, err := countRun(3, trials, ParallelOptions{Seed: 9, Workers: 4, Metrics: &bm})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != trials {
		t.Fatalf("completed %d/%d", rep.Completed, trials)
	}
	if got != ref {
		t.Fatalf("batch hook perturbed the run: %+v != %+v", got, ref)
	}
	wantChunks := int64((trials + parallelChunkSize - 1) / parallelChunkSize)
	if n := bm.batches.Load(); n != wantChunks {
		t.Errorf("TrialBatchDone called %d times, want one per chunk (%d)", n, wantChunks)
	}
	if n := bm.trials.Load(); n != trials {
		t.Errorf("batched trial total %d, want %d", n, trials)
	}
	if n, want := bm.reached.Load(), ref.reached; n != want {
		t.Errorf("batched reached total %d, observed %d", n, want)
	}
	if n, want := bm.events.Load(), ref.events; n != want {
		t.Errorf("batched step total %d, observed %d", n, want)
	}
	if n := bm.badSlices.Load(); n != 0 {
		t.Errorf("%d batches whose slices disagree with their counts", n)
	}
}

// TestCompiledCacheSharedAcrossRuns: one compiled model reused by
// consecutive runs answers the second run from the warm cache (no new
// interned states for the same seed), and the estimates agree.
func TestCompiledCacheSharedAcrossRuns(t *testing.T) {
	cm, err := Compile[flipState](flipper{})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := EstimateReachProbParallel[flipState](context.Background(), cm, mkSlowest, heads, 5, 400,
		Options[flipState]{}, ParallelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm := cm.count.Load()
	if warm == 0 {
		t.Fatal("no states interned after a full run")
	}
	second, _, err := EstimateReachProbParallel[flipState](context.Background(), cm, mkSlowest, heads, 5, 400,
		Options[flipState]{}, ParallelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cm.count.Load() != warm {
		t.Errorf("second identical run grew the cache: %d -> %d states", warm, cm.count.Load())
	}
	if first != second {
		t.Errorf("warm-cache run %+v != cold-cache run %+v", second, first)
	}
}
