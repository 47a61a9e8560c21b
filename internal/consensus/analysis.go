package consensus

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/prob"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The consensus case study lives beyond exact-checking reach (rounds make
// the state space unbounded), so its arrow-style claims are tested with
// Monte Carlo estimates and Hoeffding lower bounds: a claim
// "Start --t,p--> AllDecided" is supported at confidence 1-delta when the
// Hoeffding lower confidence bound of the estimated probability is at
// least p. This mirrors how the paper's statements would be validated on
// systems too large to enumerate.

// Claim is an arrow-style statement about the consensus protocol,
// estimated by simulation.
type Claim struct {
	// Inputs is the initial value vector.
	Inputs []uint8
	// Within is the time bound t.
	Within float64
	// Prob is the claimed lower bound p.
	Prob prob.Rat
}

// String renders the claim in arrow style.
func (c Claim) String() string {
	return fmt.Sprintf("Start%v --%g,%v--> AllCorrectDecided", c.Inputs, c.Within, c.Prob)
}

// Evidence is the Monte Carlo outcome for a claim.
type Evidence struct {
	Claim Claim
	// Estimate is the proportion of runs deciding within the bound.
	Estimate stats.Proportion
	// HoeffdingLo is the lower confidence bound at the given delta.
	HoeffdingLo float64
	Delta       float64
	// Supported reports HoeffdingLo >= Prob.
	Supported bool
	// AgreementViolations and ValidityViolations count safety failures
	// observed across all runs (must be zero).
	AgreementViolations int
	ValidityViolations  int
}

// String renders the evidence as one report line.
func (e Evidence) String() string {
	verdict := "SUPPORTED"
	if !e.Supported {
		verdict = "UNSUPPORTED"
	}
	return fmt.Sprintf("%s  %s: estimate %s, Hoeffding lower %.4f at δ=%g",
		verdict, e.Claim, e.Estimate.String(), e.HoeffdingLo, e.Delta)
}

// TestClaim runs trials independent adversarial schedules and gathers the
// evidence for the claim. The policy factory supplies the adversary; nil
// means a random scheduler with random early crashes.
//
// Cancelling ctx stops between trials and returns the Evidence gathered
// so far together with an error wrapping sim.ErrInterrupted, so a partial
// sweep still yields its (weaker) Hoeffding bound over the trials that
// did run.
func TestClaim(ctx context.Context, m *Model, c Claim, mk func() sim.Policy[State], trials int, delta float64, rng *rand.Rand) (Evidence, error) {
	ev := Evidence{Claim: c, Delta: delta}
	if ctx == nil {
		ctx = context.Background()
	}
	if mk == nil {
		mk = func() sim.Policy[State] { return RandomCrashes(sim.Random[State](0), 0.05) }
	}
	start, err := m.StartWith(c.Inputs)
	if err != nil {
		return ev, err
	}
	unanimous, unanimousVal := isUnanimous(c.Inputs)
	// One compiled model serves every trial, so the transition cache
	// warms once instead of per run.
	cm, err := sim.Compile[State](m)
	if err != nil {
		return ev, err
	}

	for trial := 0; trial < trials; trial++ {
		if ctx.Err() != nil {
			return finishEvidence(ev, c, delta,
				fmt.Errorf("%w after %d/%d consensus trials: %v", sim.ErrInterrupted, trial, trials, context.Cause(ctx)))
		}
		res, err := sim.RunOnce[State](cm, mk(), State.AllCorrectDecided, sim.Options[State]{
			Start:     start,
			SetStart:  true,
			MaxEvents: 20000,
			MaxTime:   c.Within + 1,
		}, rng)
		if err != nil {
			return ev, fmt.Errorf("consensus: trial %d: %w", trial, err)
		}
		if !res.Final.AgreementHolds() {
			ev.AgreementViolations++
		}
		if unanimous {
			for i := 0; i < m.n; i++ {
				if v, ok := res.Final.Decided(i); ok && v != unanimousVal {
					ev.ValidityViolations++
				}
			}
		}
		ev.Estimate.Observe(res.Reached && res.ReachedAt <= c.Within)
	}

	return finishEvidence(ev, c, delta, nil)
}

// finishEvidence computes the Hoeffding bound and verdict over however
// many trials Observe saw, passing runErr (e.g. an interruption) through.
// With zero completed trials the bound is left at its zero value and the
// claim stays unsupported.
func finishEvidence(ev Evidence, c Claim, delta float64, runErr error) (Evidence, error) {
	if ev.Estimate.Trials == 0 {
		return ev, runErr
	}
	lo, err := ev.Estimate.HoeffdingLower(delta)
	if err != nil {
		return ev, err
	}
	ev.HoeffdingLo = lo
	ev.Supported = lo >= c.Prob.Float64() && ev.AgreementViolations == 0 && ev.ValidityViolations == 0
	return ev, runErr
}

func isUnanimous(inputs []uint8) (bool, uint8) {
	for _, v := range inputs[1:] {
		if v != inputs[0] {
			return false, 0
		}
	}
	return true, inputs[0]
}

// RandomCrashes wraps a scheduling policy with adversarial crash
// injection: while budget remains, each decision point crashes a random
// live process with the given probability.
func RandomCrashes(inner sim.Policy[State], pCrash float64) sim.Policy[State] {
	return sim.PolicyFunc[State](func(v *sim.View[State], rng *rand.Rand) (sim.Choice, bool) {
		if len(v.UserMovers) > 0 && rng.Float64() < pCrash {
			return sim.Choice{Proc: v.UserMovers[rng.Intn(len(v.UserMovers))], User: true, At: v.Now}, true
		}
		return inner.Choose(v, rng)
	})
}

// CrashLastReporter is a targeted adversary: it crashes the process whose
// report would complete unanimity visibility, maximizing abstains — the
// crash-timing attack Ben-Or is designed to survive.
func CrashLastReporter(inner sim.Policy[State]) sim.Policy[State] {
	return sim.PolicyFunc[State](func(v *sim.View[State], rng *rand.Rand) (sim.Choice, bool) {
		s := v.State
		if len(v.UserMovers) > 0 {
			// Find a process about to post the last missing report of its
			// round and crash it instead.
			for _, i := range v.Ready {
				p := s.Proc(i)
				if p.Phase != PostReport {
					continue
				}
				posted, _, _ := countSlots(s, &s.reports[p.Round], s.N())
				if posted == s.N()-1 && canCrash(v, i) {
					return sim.Choice{Proc: i, User: true, At: v.Now}, true
				}
			}
		}
		return inner.Choose(v, rng)
	})
}

func canCrash(v *sim.View[State], proc int) bool {
	for _, j := range v.UserMovers {
		if j == proc {
			return true
		}
	}
	return false
}
