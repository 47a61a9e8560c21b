package sim

// The chaos suite: seeded fault storms against the runtime's own artifact
// layer. Each storm interleaves interrupted runs, injected filesystem
// faults (torn writes, dropped fsyncs, failed renames) and deliberate
// corruption of the newest checkpoint, then asserts the headline
// robustness guarantee: however the storm went, the run eventually
// completes with estimates bit-identical to an uninterrupted run.
//
// Every random decision of a storm derives from one seed, printed via
// t.Logf (visible on failure and under -v); replay a failing storm with
// CHAOS_SEED=<seed> go test -run TestChaos ./internal/sim/. CHAOS_STORMS
// scales the number of storms (the `make chaos` target raises it).

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/fault"
)

// chaosSeed returns the storm seed: CHAOS_SEED when set (replay), fresh
// otherwise. The seed is logged so a failure is always replayable.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		t.Logf("chaos: replaying CHAOS_SEED=%d", v)
		return v
	}
	v := time.Now().UnixNano()
	t.Logf("chaos seed %d (replay with CHAOS_SEED=%d)", v, v)
	return v
}

// chaosStorms returns how many storms to run: CHAOS_STORMS when set, else
// the given default (kept small so plain `go test ./...` stays fast).
func chaosStorms(t *testing.T, def int) int {
	t.Helper()
	if s := os.Getenv("CHAOS_STORMS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("CHAOS_STORMS %q: %v", s, err)
		}
		return v
	}
	return def
}

// corruptNewest damages the current checkpoint generation the way a
// crash or a failing disk would: truncation or a bit flip.
func corruptNewest(t *testing.T, rng *rand.Rand, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return // nothing saved yet; nothing to corrupt
	}
	switch rng.Intn(2) {
	case 0:
		data = data[:rng.Intn(len(data))]
	case 1:
		data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCheckpointStorm: under a seeded storm of injected filesystem
// faults, mid-run interruptions and corruption of the newest checkpoint,
// a run resumed leg after leg from the newest valid generation converges
// and its final estimate is bit-identical to an uninterrupted run.
func TestChaosCheckpointStorm(t *testing.T) {
	const (
		trials   = 640 // 10 chunks
		rootSeed = 99
		label    = "storm"
	)
	opts := Options[flipState]{}
	want, wantRep, err := EstimateTimeToTargetParallel[flipState](context.Background(), flipper{}, mkSlowest, heads,
		trials, opts, ParallelOptions{Workers: 4, Seed: rootSeed})
	if err != nil || wantRep.Completed != trials {
		t.Fatalf("baseline: %v (report %v)", err, wantRep)
	}

	seed := chaosSeed(t)
	storms := chaosStorms(t, 2)
	workerSeq := []int{1, 2, 8}
	for storm := 0; storm < storms; storm++ {
		stormRNG := rand.New(rand.NewSource(seed + int64(storm)))
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		inj := fault.NewInjector(fault.OS, stormRNG.Int63(), fault.Probs{
			fault.OpCreate:  0.03,
			fault.OpWrite:   0.05,
			fault.OpSync:    0.05,
			fault.OpClose:   0.02,
			fault.OpRename:  0.05,
			fault.OpSyncDir: 0.05,
			fault.OpRead:    0.02,
		})
		store := &ArtifactStore{
			FS:    inj,
			Keep:  3,
			Retry: fault.RetryPolicy{Attempts: 3, Jitter: func() float64 { return 0 }},
		}

		completed := false
		for leg := 0; leg < 300 && !completed; leg++ {
			cs, _, lerr := store.Load(path)
			if lerr != nil {
				// Every candidate generation rejected (possible, if
				// unlikely, when corruption and persistent read faults line
				// up): progress is lost, correctness is not — start over.
				if !errors.Is(lerr, fault.ErrCorruptArtifact) && !errors.Is(lerr, fault.ErrInjected) {
					t.Fatalf("storm %d leg %d: load: %v", storm, leg, lerr)
				}
				for g := 0; g < maxGenerations; g++ {
					os.Remove(genPath(path, g))
				}
				cs = CheckpointSet{}
			}
			popts := ParallelOptions{
				Workers: workerSeq[leg%len(workerSeq)],
				Seed:    rootSeed,
				Resume:  cs[label],
			}
			ctx, cancel := context.WithCancel(context.Background())
			stopAfter := 1 + stormRNG.Intn(4)
			saves := 0
			popts.CheckpointSink = func(cp *Checkpoint) error {
				if err := store.Save(path, CheckpointSet{label: cp}); err != nil {
					return err
				}
				saves++
				if saves == stopAfter {
					cancel()
				}
				return nil
			}
			sum, rep, err := EstimateTimeToTargetParallel[flipState](ctx, flipper{}, mkSlowest, heads, trials, opts, popts)
			cancel()
			switch {
			case err == nil:
				if rep.Completed != trials {
					t.Fatalf("storm %d leg %d: clean finish with %d/%d trials", storm, leg, rep.Completed, trials)
				}
				// The storm's verdict: bit-identical to the uninterrupted run.
				if !reflect.DeepEqual(sum, want) {
					t.Fatalf("storm %d (seed %d): resumed estimate %v differs from uninterrupted %v",
						storm, seed, sum.String(), want.String())
				}
				completed = true
			case errors.Is(err, ErrInterrupted), errors.Is(err, fault.ErrInjected):
				// Interrupted leg or a save that failed through its retry
				// budget: both are the storm working as intended.
			default:
				t.Fatalf("storm %d leg %d (seed %d): unexpected error: %v", storm, leg, seed, err)
			}
			if !completed && stormRNG.Float64() < 0.3 {
				corruptNewest(t, stormRNG, path)
			}
		}
		if !completed {
			t.Fatalf("storm %d (seed %d): did not converge in 300 legs (%d faults injected)",
				storm, seed, inj.Total())
		}
	}
}

// TestChaosWatchdogStall: a run with stalling trials under an armed
// watchdog, interrupted and resumed mid-storm, quarantines exactly the
// same trials as an uninterrupted watched run and produces a
// bit-identical estimate — stall quarantine composes with checkpoint
// resume.
func TestChaosWatchdogStall(t *testing.T) {
	const (
		trials   = 320 // 5 chunks
		rootSeed = 31
		frac     = 0.03
		label    = "stall-storm"
	)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	opts := Options[flipState]{}
	mkWatched := func() ParallelOptions {
		clock := fault.NewFakeClock(time.Unix(0, 0))
		autoAdvance(t, clock)
		return ParallelOptions{
			Seed:         rootSeed,
			MaxPanics:    trials,
			TrialTimeout: 30 * time.Second,
			Clock:        clock,
		}
	}

	base := mkWatched()
	base.Workers = 4
	want, wantRep, err := EstimateReachProbParallel[flipState](context.Background(), flipper{},
		mkStalling(frac, release), heads, 2, trials, opts, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if wantRep.Stalled == 0 {
		t.Fatal("baseline produced no stalls; adjust frac/seed")
	}

	seed := chaosSeed(t)
	storms := chaosStorms(t, 2)
	for storm := 0; storm < storms; storm++ {
		stormRNG := rand.New(rand.NewSource(seed ^ int64(storm+1)))
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		store := &ArtifactStore{Keep: 3}

		completed := false
		for leg := 0; leg < 50 && !completed; leg++ {
			cs, _, lerr := store.Load(path)
			if lerr != nil {
				t.Fatalf("storm %d leg %d: load: %v", storm, leg, lerr)
			}
			popts := mkWatched()
			popts.Workers = []int{1, 2, 8}[leg%3]
			popts.Resume = cs[label]
			ctx, cancel := context.WithCancel(context.Background())
			stopAfter := 1 + stormRNG.Intn(3)
			saves := 0
			popts.CheckpointSink = func(cp *Checkpoint) error {
				if err := store.Save(path, CheckpointSet{label: cp}); err != nil {
					return err
				}
				saves++
				if saves == stopAfter {
					cancel()
				}
				return nil
			}
			prop, rep, err := EstimateReachProbParallel[flipState](ctx, flipper{},
				mkStalling(frac, release), heads, 2, trials, opts, popts)
			cancel()
			switch {
			case err == nil:
				if !reflect.DeepEqual(prop, want) {
					t.Fatalf("storm %d (seed %d): resumed estimate %+v differs from uninterrupted %+v",
						storm, seed, prop, want)
				}
				if rep.Stalled != wantRep.Stalled {
					t.Fatalf("storm %d (seed %d): %d stalled trials, uninterrupted run had %d",
						storm, seed, rep.Stalled, wantRep.Stalled)
				}
				stalledSet := func(rep RunReport) []int {
					var out []int
					for _, pr := range rep.Panics {
						if pr.Kind == RecordStalled {
							out = append(out, pr.Trial)
						}
					}
					sort.Ints(out)
					return out
				}
				if !reflect.DeepEqual(stalledSet(rep), stalledSet(wantRep)) {
					t.Fatalf("storm %d (seed %d): stalled set %v differs from baseline %v",
						storm, seed, stalledSet(rep), stalledSet(wantRep))
				}
				completed = true
			case errors.Is(err, ErrInterrupted):
			default:
				t.Fatalf("storm %d leg %d (seed %d): unexpected error: %v", storm, leg, seed, err)
			}
		}
		if !completed {
			t.Fatalf("storm %d (seed %d): did not converge in 50 legs", storm, seed)
		}
	}
}
