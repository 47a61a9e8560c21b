package sim

// The uncompiled trial loop, kept as the test oracle of the engine. It
// queries Moves/UserMoves on every step and draws each successor with a
// freshly built alias table, so it shares no transition cache, state
// interning, successor pointer, scratch or arena with the engine — only
// the Unit-Time rules and the sampler's definition (prob.BuildAlias).
// The identity tests require every trial the engine runs to equal the
// oracle's run of the same trial, bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// oracleRun executes one trial of m like RunOnce, without compiling it.
func oracleRun[S comparable](m sched.Model[S], p Policy[S], target func(S) bool, opts Options[S], rng *rand.Rand) (res Result[S], err error) {
	defer recoverTrialPanic(&err)
	opts = opts.withDefaults()
	n := m.NumProcs()
	deadline := make([]float64, n)
	for i := range deadline {
		deadline[i] = math.Inf(1)
	}
	moves := make([][]pa.Step[S], n)
	userMoves := make([][]pa.Step[S], n)
	moveCount := make([]int, n)
	userCount := make([]int, n)

	state := opts.Start
	if !opts.SetStart {
		state = m.Start()[0]
	}
	now := 0.0
	res = Result[S]{Final: state}
	if target(state) {
		res.Reached = true
		return res, nil
	}
	for res.Events < opts.MaxEvents && now <= opts.MaxTime {
		v := View[S]{State: state, Now: now, DeadlineMin: math.Inf(1),
			Deadline: deadline, MoveCount: moveCount, UserMoveCount: userCount}
		for i := 0; i < n; i++ {
			moves[i] = m.Moves(state, i)
			moveCount[i] = len(moves[i])
			if moveCount[i] == 0 {
				deadline[i] = math.Inf(1)
			} else {
				if math.IsInf(deadline[i], 1) {
					deadline[i] = now + 1
				}
				v.Ready = append(v.Ready, i)
				v.DeadlineMin = math.Min(v.DeadlineMin, deadline[i])
			}
			userMoves[i] = m.UserMoves(state, i)
			userCount[i] = len(userMoves[i])
			if userCount[i] > 0 {
				v.UserMovers = append(v.UserMovers, i)
			}
		}
		c, ok := p.Choose(&v, rng)
		if !ok {
			if len(v.Ready) > 0 {
				return res, ErrPolicyDeserted
			}
			return res, nil
		}
		if c.Proc < 0 || c.Proc >= n {
			return res, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
		}
		steps := moves[c.Proc]
		if c.User {
			steps = userMoves[c.Proc]
		}
		if c.Move < 0 || c.Move >= len(steps) {
			return res, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
		}
		if c.At < now || c.At > v.DeadlineMin {
			return res, fmt.Errorf("%w: time %v outside [%v, %v]", ErrBadChoice, c.At, now, v.DeadlineMin)
		}
		step := steps[c.Move]
		if step.Next.Len() == 0 {
			return res, fmt.Errorf("%w: proc %d action %q has an empty successor distribution", ErrBadModel, c.Proc, step.Action)
		}
		next := prob.BuildAlias(step.Next).Pick(rng.Float64())
		if c.At > opts.MaxTime {
			return res, nil
		}
		res.Events++
		if opts.Observer != nil {
			opts.Observer(c.At, c.Proc, step.Action, next)
		}
		deadline[c.Proc] = math.Inf(1)
		now, state = c.At, next
		res.Final = state
		if target(state) {
			res.Reached = true
			res.ReachedAt = now
			return res, nil
		}
	}
	return res, nil
}

// oracleTrials runs trials 0..trials-1 of a parallel run with the given
// root seed through the oracle, each on its own trial RNG.
func oracleTrials[S comparable](t *testing.T, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], seed int64, trials int) []Result[S] {
	t.Helper()
	want := make([]Result[S], trials)
	for i := range want {
		res, err := oracleRun(m, mk(), target, opts, newTrialRNG(trialSeed(seed, i)))
		if err != nil {
			t.Fatalf("oracle seed=%d trial %d: %v", seed, i, err)
		}
		want[i] = res
	}
	return want
}

// recordTrials runs a parallel run that records every trial's Result
// into got (and marks it in ran); trials run by distinct workers write
// distinct elements.
func recordTrials[S comparable](ctx context.Context, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], trials int, popts ParallelOptions, got []Result[S], ran []bool) (RunReport, error) {
	_, rep, err := RunParallel(ctx, m, mk, target, trials, opts, popts,
		func(_ *struct{}, trial int, res Result[S]) error {
			got[trial], ran[trial] = res, true
			return nil
		},
		func(*struct{}, struct{}) {})
	return rep, err
}

// compareTrials requires every trial to have run and to equal the
// oracle's result.
func compareTrials[S comparable](t *testing.T, cfg string, want, got []Result[S], ran []bool) {
	t.Helper()
	for i := range want {
		if !ran[i] {
			t.Fatalf("%s: trial %d never ran", cfg, i)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: trial %d = %+v, oracle %+v", cfg, i, got[i], want[i])
		}
	}
}

var (
	identitySeeds   = []int64{1, 2, 3}
	identityWorkers = []int{1, 2, 8}
)

// checkOracleIdentity runs m through RunParallel at every identity seed
// and worker count and requires every trial's Result to equal the
// oracle's.
func checkOracleIdentity[S comparable](t *testing.T, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], trials int) {
	t.Helper()
	for _, seed := range identitySeeds {
		want := oracleTrials(t, m, mk, target, opts, seed, trials)
		for _, workers := range identityWorkers {
			cfg := fmt.Sprintf("%s seed=%d workers=%d", m.Name(), seed, workers)
			got, ran := make([]Result[S], trials), make([]bool, trials)
			rep, err := recordTrials(context.Background(), m, mk, target, opts, trials,
				ParallelOptions{Seed: seed, Workers: workers}, got, ran)
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			if rep.Completed != trials {
				t.Fatalf("%s: completed %d/%d", cfg, rep.Completed, trials)
			}
			compareTrials(t, cfg, want, got, ran)
		}
	}
}

// checkOracleResume cancels a run at its third committed chunk, resumes
// it from the checkpoint on a different worker count, and requires the
// two legs together to run every trial exactly as the oracle does, with
// the resumed leg restoring precisely the trials the first completed.
// trials must span more than three chunks.
func checkOracleResume[S comparable](t *testing.T, m sched.Model[S], mk func() Policy[S], target func(S) bool,
	opts Options[S], trials int) {
	t.Helper()
	for _, seed := range identitySeeds {
		cfg := fmt.Sprintf("%s seed=%d", m.Name(), seed)
		want := oracleTrials(t, m, mk, target, opts, seed, trials)
		got, ran := make([]Result[S], trials), make([]bool, trials)
		ctx, cancel := context.WithCancel(context.Background())
		rep, err := recordTrials(ctx, m, mk, target, opts, trials,
			interruptAfterChunks(ParallelOptions{Seed: seed, Workers: 2}, cancel, 3), got, ran)
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: err = %v, want ErrInterrupted", cfg, err)
		}
		rep2, err := recordTrials(context.Background(), m, mk, target, opts, trials,
			ParallelOptions{Seed: seed, Workers: 8, Resume: rep.Checkpoint}, got, ran)
		if err != nil {
			t.Fatalf("%s: resume: %v", cfg, err)
		}
		if rep2.Resumed != rep.Completed || rep2.Completed != trials {
			t.Fatalf("%s: resume accounting: %v then %v", cfg, rep, rep2)
		}
		compareTrials(t, cfg, want, got, ran)
	}
}
