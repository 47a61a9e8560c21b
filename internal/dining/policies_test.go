package dining

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestAllAt(t *testing.T) {
	s := AllAt(4, F)
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	for i := 0; i < 4; i++ {
		if s.Local(i).PC != F {
			t.Errorf("local %d = %v, want F", i, s.Local(i))
		}
	}
	if !InT(s) || !InRT(s) || !InF(s) {
		t.Error("all-F state not classified as T/RT/F")
	}
}

// TestPolicyByName: every name the CLIs and fabric jobs accept builds a
// policy that drives the ring into C, and every malformed name —
// including a paced alpha outside (0, 1] or not a number — is an error.
func TestPolicyByName(t *testing.T) {
	model := MustNew(3)
	for _, name := range []string{"slowest", "random", "spiteful", "paced:1", "paced:0.25"} {
		mk, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		res, err := sim.RunOnce[State](model, mk(), InC,
			sim.Options[State]{Start: AllAt(3, F), SetStart: true}, rand.New(rand.NewSource(1)))
		if err != nil || !res.Reached {
			t.Errorf("%s: reached=%v err=%v", name, res.Reached, err)
		}
	}
	for _, name := range []string{"", "nope", "Slowest", "paced:", "paced:0", "paced:-1", "paced:1.5", "paced:NaN", "paced:x"} {
		if _, err := PolicyByName(name); err == nil {
			t.Errorf("PolicyByName(%q) accepted", name)
		}
	}
}

func TestKeepTryingInjectsTry(t *testing.T) {
	model := MustNew(3)
	rng := rand.New(rand.NewSource(1))
	// From the all-R start, the wrapped slowest policy must immediately
	// issue try moves rather than stopping.
	res, err := sim.RunOnce[State](model, KeepTrying(sim.Slowest[State]()), InC,
		sim.Options[State]{MaxEvents: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("KeepTrying never reached C: %+v", res)
	}
}

func TestSpitefulReachesCEventually(t *testing.T) {
	model := MustNew(5)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := sim.RunOnce[State](model, Spiteful(), InC, sim.Options[State]{
			Start:    AllAt(5, F),
			SetStart: true,
		}, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Reached {
			t.Fatalf("seed %d: spiteful starved the ring forever: %+v", seed, res)
		}
		if res.ReachedAt > 63 {
			t.Errorf("seed %d: time to C %.3f exceeds the documented bound 63", seed, res.ReachedAt)
		}
	}
}

func TestSpitefulIsLegal(t *testing.T) {
	// The engine itself validates every Choice (time window, enabledness,
	// desertion); a long run with many seeds is a thorough legality check.
	model := MustNew(4)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if _, err := sim.RunOnce[State](model, Spiteful(), func(State) bool { return false },
			sim.Options[State]{Start: AllAt(4, F), SetStart: true, MaxEvents: 2000, MaxTime: 100}, rng); err != nil {
			t.Fatalf("seed %d: spiteful made an illegal move: %v", seed, err)
		}
	}
}

func TestSpiteScore(t *testing.T) {
	tests := []struct {
		name string
		spec string
		proc int
		want int
	}{
		{
			// Process 0 at W→ can grab Res_0, which is the second
			// resource of process 1 at S→ (its left): maximal spite.
			name: "grab contested second resource",
			spec: "W→ S→ R",
			proc: 0,
			want: 3,
		},
		{
			// Blocked wait is a pointless self-loop.
			name: "blocked wait",
			spec: "W→ S← R",
			proc: 0,
			want: 0,
		},
		{
			// A doomed second check is locked in eagerly. Process 0 at S←
			// holds Res_2... its second is Res_0; process 1 at S← holds
			// Res_0: doomed.
			name: "doomed second check",
			spec: "S← S← R",
			proc: 0,
			want: 2,
		},
		{
			// A second check that would succeed is delayed.
			name: "winnable second check",
			spec: "S← R R",
			proc: 0,
			want: 0,
		},
		{name: "flip gathers information", spec: "F R R", proc: 0, want: 1},
		{name: "drop only helps others", spec: "D→ R R", proc: 0, want: 0},
		{name: "pre-critical is delayed", spec: "P R R", proc: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := spiteScore(mk(t, tt.spec), tt.proc); got != tt.want {
				t.Errorf("spiteScore(%s, %d) = %d, want %d", tt.spec, tt.proc, got, tt.want)
			}
		})
	}
}

func TestSecondResourceNeededBy(t *testing.T) {
	// Process 1 at S→ holds Res_1, needs Res_0 (its left) as second.
	s := mk(t, "R S→ R")
	if !secondResourceNeededBy(s, 0) {
		t.Error("Res_0 should be needed by process 1's second check")
	}
	if secondResourceNeededBy(s, 2) {
		t.Error("Res_2 is nobody's second resource")
	}
}
