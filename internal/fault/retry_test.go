package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

// recordClock is a Clock whose After records each wait and fires at
// once, so DoCtx's backoff runs at full speed with its waits visible.
// For one goroutine only.
type recordClock struct {
	now   time.Time
	waits []time.Duration
}

func (c *recordClock) Now() time.Time { return c.now }

func (c *recordClock) After(d time.Duration) <-chan time.Time {
	c.waits = append(c.waits, d)
	c.now = c.now.Add(d)
	ch := make(chan time.Time, 1)
	ch <- c.now
	return ch
}

// TestRetrySucceedsAfterTransients: DoCtx keeps trying through
// transient failures and stops the moment fn succeeds.
func TestRetrySucceedsAfterTransients(t *testing.T) {
	calls := 0
	var retries []int
	clock := &recordClock{}
	p := RetryPolicy{
		Attempts: 5,
		Clock:    clock,
		OnRetry:  func(attempt int, err error) { retries = append(retries, attempt) },
	}
	err := p.DoCtx(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("DoCtx = %v after %d calls, want nil after 3", err, calls)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("OnRetry attempts = %v, want [1 2]", retries)
	}
	if len(clock.waits) != 2 {
		t.Fatalf("waited %d times between 3 attempts, want 2", len(clock.waits))
	}
}

// TestRetryBudgetExhausted: after Attempts failures DoCtx returns the
// last error and never waits past the final attempt.
func TestRetryBudgetExhausted(t *testing.T) {
	calls := 0
	clock := &recordClock{}
	p := RetryPolicy{Attempts: 4, Clock: clock}
	last := errors.New("still failing")
	err := p.DoCtx(context.Background(), func() error { calls++; return last })
	if !errors.Is(err, last) || calls != 4 {
		t.Fatalf("DoCtx = %v after %d calls, want last error after 4", err, calls)
	}
	if len(clock.waits) != 3 {
		t.Fatalf("waited %d times for 4 attempts, want 3", len(clock.waits))
	}
}

// TestBackoffBounds: backoff doubles from Base and saturates at Cap.
func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond,
		50 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

// TestFullJitterSleep: the actual wait is jitter * Backoff(attempt).
func TestFullJitterSleep(t *testing.T) {
	clock := &recordClock{}
	p := RetryPolicy{
		Attempts: 3,
		Base:     8 * time.Millisecond,
		Cap:      time.Second,
		Clock:    clock,
		Jitter:   func() float64 { return 0.5 },
	}
	p.DoCtx(context.Background(), func() error { return errors.New("fail") })
	want := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond}
	if len(clock.waits) != len(want) {
		t.Fatalf("waited %v, want %v", clock.waits, want)
	}
	for i := range want {
		if clock.waits[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v", i, clock.waits[i], want[i])
		}
	}
}

// TestDefaults: the zero policy fills in the standard knobs, and explicit
// values survive.
func TestDefaults(t *testing.T) {
	d := RetryPolicy{}.Defaults()
	if d.Attempts != 4 || d.Base != 5*time.Millisecond || d.Cap != 250*time.Millisecond {
		t.Fatalf("Defaults = %+v", d)
	}
	k := RetryPolicy{Attempts: 9, Base: time.Second, Cap: time.Minute}.Defaults()
	if k.Attempts != 9 || k.Base != time.Second || k.Cap != time.Minute {
		t.Fatalf("Defaults clobbered explicit values: %+v", k)
	}
}
