package fault

import (
	"errors"
	"testing"
	"time"
)

// call runs fn under b the way the fabric worker drives its breaker:
// Allow, fn, Record(fn's error).
func call(b *Breaker, fn func() error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := fn()
	b.Record(err)
	return err
}

// TestBreakerOpensAfterConsecutiveFailures: a run of Failures transport
// errors opens the breaker, and further calls fail instantly without
// running fn.
func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Failures: 3, Cooldown: 10 * time.Second, Clock: clock})
	boom := errors.New("connection refused")
	for i := 0; i < 3; i++ {
		if st := b.State(); st != BreakerClosed {
			t.Fatalf("state before failure %d = %v, want closed", i, st)
		}
		if err := call(b, func() error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("call = %v, want the transport error", err)
		}
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", st)
	}
	calls := 0
	if err := call(b, func() error { calls++; return nil }); !errors.Is(err, ErrBreakerOpen) || calls != 0 {
		t.Fatalf("call while open = %v after %d calls, want ErrBreakerOpen after 0", err, calls)
	}
}

// TestBreakerSuccessResetsFailureRun: interleaved successes keep the
// breaker closed — only consecutive failures open it.
func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(BreakerOptions{Failures: 2, Clock: NewFakeClock(time.Unix(0, 0))})
	boom := errors.New("boom")
	for i := 0; i < 5; i++ {
		call(b, func() error { return boom })
		call(b, func() error { return nil })
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v, want closed (failure run never reached 2)", st)
	}
}

// TestBreakerHalfOpenProbe: after the cooldown the breaker admits one
// probe; a concurrent second call is rejected, and the probe's success
// closes the breaker.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Failures: 1, Cooldown: 5 * time.Second, Clock: clock})
	b.Record(call(b, func() error { return errors.New("boom") })) // opens; extra Record while open is a no-op
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	clock.Advance(5 * time.Second)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("first half-open Allow = %v, want probe admitted", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second half-open Allow = %v, want ErrBreakerOpen (probe in flight)", err)
	}
	b.Record(nil)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe restarts the
// cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(BreakerOptions{Failures: 1, Cooldown: 5 * time.Second, Clock: clock})
	call(b, func() error { return errors.New("boom") })
	clock.Advance(5 * time.Second)
	if err := call(b, func() error { return errors.New("still down") }); err == nil {
		t.Fatal("probe unexpectedly succeeded")
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open again", st)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow after failed probe = %v, want ErrBreakerOpen", err)
	}
	// The second cooldown behaves like the first.
	clock.Advance(5 * time.Second)
	if err := call(b, func() error { return nil }); err != nil {
		t.Fatalf("probe after second cooldown = %v, want success", err)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v, want closed", st)
	}
}

// TestBreakerOnChange: every transition reaches the hook in order — the
// seam the obs breaker-state gauge hangs off.
func TestBreakerOnChange(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	var seen []string
	b := NewBreaker(BreakerOptions{Failures: 1, Cooldown: time.Second, Clock: clock,
		OnChange: func(from, to BreakerState) { seen = append(seen, from.String()+">"+to.String()) }})
	call(b, func() error { return errors.New("boom") })
	clock.Advance(time.Second)
	call(b, func() error { return nil })
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, seen[i], want[i], seen)
		}
	}
}
