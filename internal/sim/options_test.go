package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options[flipState]{}.withDefaults()
	if o.MaxEvents != 100000 || o.MaxTime != 1000 {
		t.Errorf("defaults = %+v", o)
	}
	custom := Options[flipState]{MaxEvents: 5, MaxTime: 2}.withDefaults()
	if custom.MaxEvents != 5 || custom.MaxTime != 2 {
		t.Errorf("custom options overridden: %+v", custom)
	}
}

func TestObserverHook(t *testing.T) {
	var events []string
	var times []float64
	opts := Options[flipState]{
		Observer: func(at float64, proc int, action string, next flipState) {
			events = append(events, action)
			times = append(times, at)
		},
	}
	rng := rand.New(rand.NewSource(3))
	res, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(s flipState) bool { return s.Heads },
		opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Events {
		t.Fatalf("observer saw %d events, run took %d", len(events), res.Events)
	}
	for i, a := range events {
		if a != "flip" {
			t.Errorf("event %d = %q, want flip", i, a)
		}
		if times[i] != float64(i+1) {
			t.Errorf("event %d at %g, want %d (slowest policy)", i, times[i], i+1)
		}
	}
}

func TestMaxTimeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A target that never holds with a tiny time budget: the run stops
	// once the clock passes MaxTime.
	res, err := RunOnce[flipState](flipper{}, Slowest[flipState](), func(flipState) bool { return false },
		Options[flipState]{MaxTime: 2.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Error("unreachable target reached")
	}
	// Either quiesced at heads early or was cut off shortly after the
	// budget; events are bounded accordingly.
	if res.Events > 4 {
		t.Errorf("run took %d events past a 2.5 time budget", res.Events)
	}
}

func TestViewDeadlineMinNoReady(t *testing.T) {
	cm, err := Compile[flipState](flipper{})
	if err != nil {
		t.Fatal(err)
	}
	var sc viewScratch[flipState]
	sc.init(cm)
	v := sc.build(flipState{Heads: true}, 3.5)
	if len(v.Ready) != 0 {
		t.Fatalf("ready = %v", v.Ready)
	}
	if !math.IsInf(v.DeadlineMin, 1) {
		t.Errorf("DeadlineMin = %g, want +Inf", v.DeadlineMin)
	}
}

// TestViewBuffersReused pins the borrowing contract: the engine hands the
// policy the same backing buffers on every step, so a policy that copies
// nothing sees its old view mutated — the documented trade for an
// allocation-free hot loop.
func TestViewBuffersReused(t *testing.T) {
	var first View[int]
	steps := 0
	probe := PolicyFunc[int](func(v *View[int], _ *rand.Rand) (Choice, bool) {
		if steps == 0 {
			first = *v
		}
		steps++
		return Choice{Proc: 0, At: v.DeadlineMin}, true
	})
	_, err := RunOnce[int](ticker{}, probe, func(s int) bool { return s >= 3 },
		Options[int]{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if steps < 3 {
		t.Fatalf("took %d steps, want >= 3", steps)
	}
	// The view captured on step 0 shares buffers with later steps: its
	// deadline map now reflects the final step, not time 1.
	if d := first.Deadline[0]; d == 1 {
		t.Errorf("deadline map was not reused (still %g); the borrowing contract changed", d)
	}
}
