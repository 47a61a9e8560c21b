package fault

// Bounded retry with exponential backoff and full jitter, for transient
// artifact-write failures (injected by the chaos harness, or real — a
// network filesystem hiccup, EINTR, disk pressure). Full jitter
// (sleep = U[0,1) * min(cap, base·2^attempt)) decorrelates retries that
// would otherwise stampede in lockstep; see AWS's "Exponential Backoff
// And Jitter" analysis.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy bounds and paces the retries of one operation run
// through DoCtx. Unset knobs take the standard artifact-layer values
// (Defaults), so the zero value is a complete policy.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first;
	// values below 1 mean 4.
	Attempts int
	// Base is the backoff unit: attempt k (0-based) waits up to
	// Base·2^k, capped at Cap. Defaults to 5ms when 0.
	Base time.Duration
	// Cap bounds a single backoff sleep. Defaults to 250ms when 0.
	Cap time.Duration
	// Clock times DoCtx's backoff waits; nil means the wall clock (Wall).
	// Tests inject a FakeClock to pace retries by hand.
	Clock Clock
	// Jitter draws the full-jitter fraction in [0, 1); nil uses a
	// package-level seeded source. Tests inject a constant for
	// deterministic pacing.
	Jitter func() float64
	// Retryable classifies errors; nil retries every error. Return
	// false for permanent failures (e.g. a missing directory) so they
	// surface immediately.
	Retryable func(error) bool
	// OnRetry, when non-nil, observes each retry (attempt is 1-based:
	// the retry about to run) — the hook behind the obs retry counters.
	OnRetry func(attempt int, err error)
	// MaxElapsed, when positive, bounds the total wall clock one DoCtx
	// call may spend across attempts and backoff waits, measured
	// through Clock. When the budget runs out mid-backoff, DoCtx sleeps
	// only the remainder and returns the last attempt's error wrapped
	// in a *BudgetExceededError.
	MaxElapsed time.Duration
}

// BudgetExceededError reports a DoCtx call that ran out of its
// MaxElapsed budget while the operation was still failing. It unwraps
// to the last attempt's error.
type BudgetExceededError struct {
	// Budget is the configured MaxElapsed.
	Budget time.Duration
	// Elapsed is how long the call actually ran.
	Elapsed time.Duration
	// Last is the final attempt's error.
	Last error
}

// Error reports the budget, the elapsed time and the last failure.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("fault: retry budget %v exceeded after %v (last attempt: %v)", e.Budget, e.Elapsed, e.Last)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *BudgetExceededError) Unwrap() error { return e.Last }

// RetryAfterHint is implemented by errors that carry the server's
// requested backoff (an HTTP 429 Retry-After). DoCtx honors the hint as
// a floor on the next backoff wait, found via errors.As anywhere in the
// attempt's error chain.
type RetryAfterHint interface {
	RetryAfter() time.Duration
}

// Defaults returns p with unset knobs filled in: 4 attempts, 5ms base,
// 250ms cap.
func (p RetryPolicy) Defaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = 5 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 250 * time.Millisecond
	}
	return p
}

// jitterRNG is the default jitter source, seeded once per process; draws
// lock because DoCtx may run from concurrent goroutines.
var jitterRNG = struct {
	mu  sync.Mutex
	rng *rand.Rand
}{rng: rand.New(rand.NewSource(time.Now().UnixNano()))}

func defaultJitter() float64 {
	jitterRNG.mu.Lock()
	defer jitterRNG.mu.Unlock()
	return jitterRNG.rng.Float64()
}

// Uniform01 draws from the package-level seeded jitter source — the
// same full-jitter fraction the retry policies use, exported for
// callers (the fabric worker's idle-poll backoff) that need to
// decorrelate their own waits.
func Uniform01() float64 { return defaultJitter() }

// Backoff reports the maximum sleep before the given 0-based retry
// attempt: min(Cap, Base·2^attempt). Exposed for tests asserting pacing.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.Cap {
			return p.Cap
		}
	}
	return min(d, p.Cap)
}

// DoCtx runs fn until it succeeds, fails permanently, or the attempt
// budget is spent, waiting a full-jittered exponential backoff between
// tries, and returns fn's last error. Every backoff wait runs through
// Clock.After in a select against ctx.Done(), so a cancelled context
// interrupts the wait immediately instead of sleeping out up to Cap per
// attempt, and ctx is also checked before each attempt. On cancellation
// the returned error matches ctx.Err() via errors.Is (wrapping the last
// attempt's error, when there was one, for context). When an attempt's
// error carries a RetryAfterHint (an HTTP 429's Retry-After), the hint
// floors the next backoff wait. With MaxElapsed set, a budget that runs
// out mid-backoff cuts the final wait short and returns a
// *BudgetExceededError wrapping the last attempt's error.
func (p RetryPolicy) DoCtx(ctx context.Context, fn func() error) error {
	p = p.Defaults()
	jitter := p.Jitter
	if jitter == nil {
		jitter = defaultJitter
	}
	clock := p.Clock
	if clock == nil {
		clock = Wall
	}
	var start time.Time
	if p.MaxElapsed > 0 {
		start = clock.Now()
	}
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if ctx.Err() != nil {
			return ctxRetryErr(ctx, err)
		}
		if err = fn(); err == nil {
			return nil
		}
		if p.Retryable != nil && !p.Retryable(err) {
			return err
		}
		if attempt == p.Attempts-1 {
			break
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt+1, err)
		}
		wait := time.Duration(jitter() * float64(p.Backoff(attempt)))
		var hint RetryAfterHint
		if errors.As(err, &hint) {
			if after := hint.RetryAfter(); after > wait {
				wait = after
			}
		}
		if p.MaxElapsed > 0 {
			elapsed := clock.Now().Sub(start)
			remaining := p.MaxElapsed - elapsed
			if remaining <= 0 {
				return &BudgetExceededError{Budget: p.MaxElapsed, Elapsed: elapsed, Last: err}
			}
			if wait > remaining {
				// The budget runs out mid-backoff: sleep only the
				// remainder, then give up.
				select {
				case <-clock.After(remaining):
				case <-ctx.Done():
					return ctxRetryErr(ctx, err)
				}
				return &BudgetExceededError{Budget: p.MaxElapsed, Elapsed: clock.Now().Sub(start), Last: err}
			}
		}
		select {
		case <-clock.After(wait):
		case <-ctx.Done():
			return ctxRetryErr(ctx, err)
		}
	}
	return err
}

// ctxRetryErr reports a retry loop cut short by cancellation, keeping
// the cancellation cause matchable and the last attempt's error visible.
func ctxRetryErr(ctx context.Context, last error) error {
	if last == nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), last)
}
