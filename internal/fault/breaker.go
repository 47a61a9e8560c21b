package fault

// A circuit breaker for worker RPCs: after a run of consecutive
// transport failures the breaker opens and fails calls instantly
// (ErrBreakerOpen) instead of letting every retry hammer a dead or
// partitioned address; after a cooldown it half-opens and admits one
// probe, closing again on success. Time runs through a Clock so
// FakeClock tests drive the state machine by hand.

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's state.
type BreakerState int32

const (
	// BreakerClosed passes every call through, counting consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails every call instantly with ErrBreakerOpen until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe call at a time; success closes
	// the breaker, failure reopens it.
	BreakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// String names the state ("closed", "open", "half-open").
func (s BreakerState) String() string {
	if int(s) < len(breakerStateNames) {
		return breakerStateNames[s]
	}
	return "unknown"
}

// ErrBreakerOpen is returned without attempting the call while the
// breaker is open (or half-open with its probe in flight). It is a
// transient condition: callers should back off and retry.
var ErrBreakerOpen = errors.New("fault: circuit breaker open")

// BreakerOptions configures a Breaker. The zero value gets sane
// defaults: 5 consecutive failures to open, 1s cooldown, wall clock.
type BreakerOptions struct {
	// Failures is the run of consecutive failures that opens the
	// breaker. Values below 1 mean 5.
	Failures int
	// Cooldown is how long the breaker stays open before half-opening.
	// Non-positive means 1s.
	Cooldown time.Duration
	// Clock drives the cooldown; nil means Wall.
	Clock Clock
	// OnChange, when non-nil, observes every state transition — the
	// hook behind the obs breaker-state gauge. It is called outside the
	// breaker's lock.
	OnChange func(from, to BreakerState)
}

func (o BreakerOptions) defaults() BreakerOptions {
	if o.Failures < 1 {
		o.Failures = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.Clock == nil {
		o.Clock = Wall
	}
	return o
}

// Breaker is a closed/open/half-open circuit breaker. Safe for
// concurrent use. Pair every successful Allow with exactly one Record.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	probing  bool      // the half-open probe is in flight
	openedAt time.Time // when the breaker last opened
}

// NewBreaker returns a Breaker with opts' unset knobs defaulted.
func NewBreaker(opts BreakerOptions) *Breaker {
	return &Breaker{opts: opts.defaults()}
}

// State reports the current state, promoting open to half-open when the
// cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	st, change := b.refreshLocked()
	b.mu.Unlock()
	b.notify(change)
	return st
}

// refreshLocked applies the time-driven open→half-open transition and
// reports the current state plus any transition to notify.
func (b *Breaker) refreshLocked() (BreakerState, *transition) {
	if b.state == BreakerOpen && !b.opts.Clock.Now().Before(b.openedAt.Add(b.opts.Cooldown)) {
		b.state = BreakerHalfOpen
		b.probing = false
		return b.state, &transition{BreakerOpen, BreakerHalfOpen}
	}
	return b.state, nil
}

type transition struct{ from, to BreakerState }

func (b *Breaker) notify(ch *transition) {
	if ch != nil && b.opts.OnChange != nil {
		b.opts.OnChange(ch.from, ch.to)
	}
}

// Allow reports whether a call may proceed. A nil return admits the
// call and MUST be matched by one Record with the call's outcome; a
// half-open admission reserves the probe, which Record releases.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	st, change := b.refreshLocked()
	var err error
	switch st {
	case BreakerOpen:
		err = ErrBreakerOpen
	case BreakerHalfOpen:
		if b.probing {
			err = ErrBreakerOpen
		} else {
			b.probing = true
		}
	}
	b.mu.Unlock()
	b.notify(change)
	return err
}

// Record reports the outcome of a call admitted by Allow: nil for
// success (the transport delivered a response — application-level
// status codes still count as success), non-nil for a transport
// failure.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	var change *transition
	switch b.state {
	case BreakerClosed:
		if err == nil {
			b.fails = 0
		} else {
			b.fails++
			if b.fails >= b.opts.Failures {
				b.state = BreakerOpen
				b.openedAt = b.opts.Clock.Now()
				b.fails = 0
				change = &transition{BreakerClosed, BreakerOpen}
			}
		}
	case BreakerHalfOpen:
		b.probing = false
		if err == nil {
			b.state = BreakerClosed
			b.fails = 0
			change = &transition{BreakerHalfOpen, BreakerClosed}
		} else {
			b.state = BreakerOpen
			b.openedAt = b.opts.Clock.Now()
			change = &transition{BreakerHalfOpen, BreakerOpen}
		}
	case BreakerOpen:
		// A straggler Record from a call admitted before the breaker
		// opened; consecutive-failure accounting restarts on half-open.
	}
	b.mu.Unlock()
	b.notify(change)
}
