package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDoCtxSucceeds: on the happy path DoCtx waits through the
// injected clock between attempts.
func TestDoCtxSucceeds(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	calls := 0
	done := make(chan error, 1)
	p := RetryPolicy{Attempts: 3, Base: time.Second, Cap: time.Second, Clock: clock,
		Jitter: func() float64 { return 0.5 }}
	go func() {
		done <- p.DoCtx(context.Background(), func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	}()
	// Two backoff waits of 500ms each separate the three attempts.
	for i := 0; i < 2; i++ {
		waitForWaiter(t, clock)
		clock.Advance(500 * time.Millisecond)
	}
	if err := <-done; err != nil || calls != 3 {
		t.Fatalf("DoCtx = %v after %d calls, want nil after 3", err, calls)
	}
}

// TestDoCtxCancelDuringBackoff is the satellite's acceptance point: a
// context cancelled mid-backoff returns promptly with ctx.Err(), without
// sleeping out the rest of the wait (the fake clock never advances).
func TestDoCtxCancelDuringBackoff(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	attemptErr := errors.New("still failing")
	done := make(chan error, 1)
	p := RetryPolicy{Attempts: 5, Base: time.Hour, Cap: time.Hour, Clock: clock,
		Jitter: func() float64 { return 0.99 }}
	go func() {
		done <- p.DoCtx(ctx, func() error { return attemptErr })
	}()
	waitForWaiter(t, clock) // first backoff wait parked on the fake clock
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DoCtx = %v, want context.Canceled", err)
		}
		// The last attempt's error stays visible for debugging.
		if got := err.Error(); !errors.Is(err, context.Canceled) || !containsStr(got, attemptErr.Error()) {
			t.Fatalf("DoCtx error %q does not carry the last attempt error %q", got, attemptErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DoCtx did not return promptly after cancellation")
	}
}

// TestDoCtxPreCancelled: an already-cancelled context returns ctx.Err()
// without calling fn at all.
func TestDoCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := RetryPolicy{Attempts: 5}.DoCtx(ctx, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("DoCtx = %v after %d calls, want context.Canceled after 0", err, calls)
	}
}

// TestDoCtxPermanent: a non-retryable error surfaces immediately, no
// backoff wait.
func TestDoCtxPermanent(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	p := RetryPolicy{Attempts: 5, Clock: NewFakeClock(time.Unix(0, 0)),
		Retryable: func(err error) bool { return !errors.Is(err, permanent) }}
	err := p.DoCtx(context.Background(), func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("DoCtx = %v after %d calls, want the permanent error after 1", err, calls)
	}
}

// TestDoCtxBudgetExhausted: DoCtx returns the last error once attempts
// run out.
func TestDoCtxBudgetExhausted(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	calls := 0
	done := make(chan error, 1)
	last := errors.New("always failing")
	p := RetryPolicy{Attempts: 3, Base: time.Millisecond, Cap: time.Millisecond, Clock: clock,
		Jitter: func() float64 { return 0.5 }}
	go func() {
		done <- p.DoCtx(context.Background(), func() error { calls++; return last })
	}()
	for i := 0; i < 2; i++ {
		waitForWaiter(t, clock)
		clock.Advance(time.Millisecond)
	}
	if err := <-done; !errors.Is(err, last) || calls != 3 {
		t.Fatalf("DoCtx = %v after %d calls, want last error after 3", err, calls)
	}
}

// waitForWaiter spins until a goroutine is parked on the fake clock.
func waitForWaiter(t *testing.T, c *FakeClock) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Waiters() > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no goroutine parked on the fake clock")
}

func containsStr(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && searchStr(s, sub))
}

func searchStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
