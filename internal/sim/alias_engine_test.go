package sim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// skewFlip is flipper with a 3/4–1/4 coin, heavy side first: the support
// order where the alias table partitions [0, 1) differently from the
// cumulative scan of Dist.Pick (draws in [1/2, 3/4) map to different
// outcomes). It is the sentinel that a replay samples with the engine's
// sampler — the case studies' fair coins and point distributions sample
// identically under both, so a test on those models cannot tell them
// apart.
type skewFlip struct{}

func (skewFlip) Name() string       { return "skew-flipper" }
func (skewFlip) NumProcs() int      { return 1 }
func (skewFlip) Start() []flipState { return []flipState{{}} }

func (skewFlip) Moves(s flipState, i int) []pa.Step[flipState] {
	if s.Heads {
		return nil
	}
	return []pa.Step[flipState]{{
		Action: "flip",
		Next: prob.MustDist(
			prob.Outcome[flipState]{Value: flipState{Heads: false, Flips: s.Flips + 1}, Prob: prob.NewRat(3, 4)},
			prob.Outcome[flipState]{Value: flipState{Heads: true, Flips: s.Flips + 1}, Prob: prob.NewRat(1, 4)},
		),
	}}
}

func (skewFlip) UserMoves(flipState, int) []pa.Step[flipState] { return nil }

var _ sched.Model[flipState] = skewFlip{}

// TestBitCompatRestoresIdentity pins bit compatibility with the oracle on
// the one distribution shape where the sampler is observable: on the
// skewed coin, RunOnce handed the raw or the compiled model must equal
// the oracle on every seed, while Dist.Pick's scan must pick differently
// from the alias table on some seed's first draw — proving the identity
// would catch an engine that sampled by scan.
func TestBitCompatRestoresIdentity(t *testing.T) {
	cm, err := Compile[flipState](skewFlip{})
	if err != nil {
		t.Fatal(err)
	}
	coin := skewFlip{}.Moves(flipState{}, 0)[0].Next
	alias := prob.BuildAlias(coin)
	diverged := false
	for seed := int64(0); seed < 200; seed++ {
		want, err1 := oracleRun[flipState](skewFlip{}, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(seed)))
		raw, err2 := RunOnce[flipState](skewFlip{}, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(seed)))
		comp, err3 := RunOnce[flipState](cm, Slowest[flipState](), heads, Options[flipState]{}, rand.New(rand.NewSource(seed)))
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("seed=%d: errs %v / %v / %v", seed, err1, err2, err3)
		}
		if raw != want || comp != want {
			t.Fatalf("seed=%d: raw model %+v, compiled %+v; oracle %+v", seed, raw, comp, want)
		}
		if u := rand.New(rand.NewSource(seed)).Float64(); coin.Pick(u) != alias.Pick(u) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("Dist.Pick's scan never picked differently from the alias table on the skewed coin; this test lost its teeth")
	}
}

// TestBitCompatParallelMatchesUncompiled: the parallel engine runs every
// trial of the skewed coin bit for bit as the oracle does, at every
// identity seed and worker count.
func TestBitCompatParallelMatchesUncompiled(t *testing.T) {
	checkOracleIdentity[flipState](t, skewFlip{}, mkSlowest, heads, Options[flipState]{}, 256)
}

// TestReproTrialRawModel is the regression test for replaying a trial
// with the raw model: every trial of a default run on the skewed coin must
// replay to the same Result through ReproTrial, which compiles the model
// and so samples with the engine's alias tables, not Dist.Pick's scan.
func TestReproTrialRawModel(t *testing.T) {
	const trials, seed = 256, 1
	got, ran := make([]Result[flipState], trials), make([]bool, trials)
	if _, err := recordTrials[flipState](context.Background(), skewFlip{}, mkSlowest, heads, Options[flipState]{}, trials,
		ParallelOptions{Seed: seed}, got, ran); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		res, err := ReproTrial[flipState](skewFlip{}, mkSlowest, heads, Options[flipState]{}, seed, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res != got[i] {
			t.Fatalf("trial %d replays to %+v, run recorded %+v", i, res, got[i])
		}
	}
}

// TestArenaBitIdentical: reusing one scratch and RNG per worker (the
// default) must be invisible in the results — watched trials, which run
// on fresh scratch and a fresh RNG each, produce the same Result for
// every trial and every worker count.
func TestArenaBitIdentical(t *testing.T) {
	const trials = 600
	for _, workers := range []int{1, 4} {
		arena, fresh := make([]Result[flipState], trials), make([]Result[flipState], trials)
		ranA, ranF := make([]bool, trials), make([]bool, trials)
		popts := ParallelOptions{Seed: 5, Workers: workers}
		if _, err := recordTrials[flipState](context.Background(), skewFlip{}, mkSlowest, heads, Options[flipState]{}, trials,
			popts, arena, ranA); err != nil {
			t.Fatal(err)
		}
		popts.TrialTimeout = time.Hour
		if _, err := recordTrials[flipState](context.Background(), skewFlip{}, mkSlowest, heads, Options[flipState]{}, trials,
			popts, fresh, ranF); err != nil {
			t.Fatal(err)
		}
		compareTrials(t, fmt.Sprintf("workers=%d arena vs fresh", workers), fresh, arena, ranA)
	}
}

// TestTrialLoopZeroAlloc is the arena claim as an assertion: with a warm
// compiled cache, a shared policy and a reused arena — exactly what each
// RunParallel worker holds — the steady-state trial loop allocates
// nothing.
func TestTrialLoopZeroAlloc(t *testing.T) {
	cm, err := Compile[flipState](flipper{})
	if err != nil {
		t.Fatal(err)
	}
	ar := newTrialArena(cm)
	pol := Slowest[flipState]()
	opts := Options[flipState]{}.withDefaults()
	var res Result[flipState]
	run := func() {
		ar.rng.Seed(trialSeed(1, 0))
		if err := runTrial(&ar.sc, pol, heads, opts, ar.rng, &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the compiled cache outside the measurement
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("steady-state trial loop allocates %.2f allocs/op, want 0", avg)
	}
}

// TestArenaFieldsApart pins trialArena's padding: the fields every event
// writes — the scratch's cur, pending and view, the deadline array and
// the RNG state — must lie at least arenaPad bytes from any other
// worker's, so no two workers share a cache line or an adjacent-line
// prefetch pair.
func TestArenaFieldsApart(t *testing.T) {
	cm, err := Compile[flipState](flipper{})
	if err != nil {
		t.Fatal(err)
	}
	type field struct {
		name   string
		lo, hi uintptr
	}
	span := func(name string, p unsafe.Pointer, size uintptr) field {
		return field{name, uintptr(p), uintptr(p) + size}
	}
	var arenas []*trialArena[flipState]
	var fields [][]field
	for w := 0; w < 8; w++ {
		ar := newTrialArena(cm)
		arenas = append(arenas, ar) // keep every arena live while addresses are compared
		sc := &ar.sc
		fields = append(fields, []field{
			span("cur", unsafe.Pointer(&sc.cur), unsafe.Sizeof(sc.cur)),
			span("pending", unsafe.Pointer(&sc.pending), unsafe.Sizeof(sc.pending)),
			span("view", unsafe.Pointer(&sc.view), unsafe.Sizeof(sc.view)),
			span("deadline", unsafe.Pointer(unsafe.SliceData(sc.deadline)), uintptr(len(sc.deadline))*8),
			span("rng state", unsafe.Pointer(&ar.src), unsafe.Sizeof(ar.src)),
		})
	}
	for a := range fields {
		for b := a + 1; b < len(fields); b++ {
			for _, fa := range fields[a] {
				for _, fb := range fields[b] {
					gap := max(int64(fb.lo)-int64(fa.hi), int64(fa.lo)-int64(fb.hi))
					if gap < arenaPad {
						t.Errorf("worker %d %s and worker %d %s are %d bytes apart, want >= %d",
							a, fa.name, b, fb.name, gap, arenaPad)
					}
				}
			}
		}
	}
	runtime.KeepAlive(arenas)
}

// TestInterningZeroStateGrowth: the cache interns states by value; it
// warms once, and a second identical run interns nothing and gives the
// same answer.
func TestInterningZeroStateGrowth(t *testing.T) {
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
		t.Errorf("warm cache run %+v != cold run %+v", second, first)
	}
}
