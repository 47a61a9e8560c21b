// Benchmark harness: one benchmark per experiment row of DESIGN.md's
// experiment index (E1–E15). Each benchmark regenerates the corresponding
// paper quantity — the five arrows of Section 6.2, the composed
// T --13,1/8--> C, the expected-time bounds, the Proposition 4.2 /
// Example 4.1 independence results, the digitization ablation, the
// qualitative baseline, and the Monte Carlo scaling run — and asserts the
// paper's bound on every iteration, so a regression that breaks the
// reproduction fails the bench.
package timedpa_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Shared fixtures: the n=3 analyses are built once; building them is
// benchmarked separately in BenchmarkEnumerateProduct.
var (
	lrOnce sync.Once
	lrK1   *dining.Analysis
	lrK2   *dining.Analysis
	elN3   *election.Analysis
)

func fixtures(b *testing.B) (*dining.Analysis, *dining.Analysis, *election.Analysis) {
	b.Helper()
	lrOnce.Do(func() {
		var err error
		if lrK1, err = dining.NewAnalysisOpts(3, 1, dining.Opts{}); err != nil {
			b.Fatal(err)
		}
		if lrK2, err = dining.NewAnalysisOpts(3, 2, dining.Opts{}); err != nil {
			b.Fatal(err)
		}
		if elN3, err = election.NewAnalysisOpts(3, 1, election.Opts{}); err != nil {
			b.Fatal(err)
		}
	})
	return lrK1, lrK2, elN3
}

// benchArrow checks one paper arrow (by index into PaperStatements) on
// every iteration and asserts it holds.
func benchArrow(b *testing.B, idx int) {
	b.Helper()
	a, _, _ := fixtures(b)
	st := a.PaperStatements()[idx]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStatement(a.MDP, a.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("paper statement fails: %s", r)
		}
	}
}

// E2 (Proposition A.3): T --2,1--> RT∪C.
func BenchmarkArrowT_RT(b *testing.B) { benchArrow(b, 0) }

// E3 (Proposition A.15): RT --3,1--> F∪G∪P.
func BenchmarkArrowRT_FGP(b *testing.B) { benchArrow(b, 1) }

// E4 (Proposition A.14): F --2,1/2--> G∪P.
func BenchmarkArrowF_GP(b *testing.B) { benchArrow(b, 2) }

// E5 (Proposition A.11): G --5,1/4--> P.
func BenchmarkArrowG_P(b *testing.B) { benchArrow(b, 3) }

// E1 (Proposition A.1): P --1,1--> C.
func BenchmarkArrowP_C(b *testing.B) { benchArrow(b, 4) }

// E6: the Section 6.2 derivation — compose the five premises into
// T --13,1/8--> C. An Analysis checks its premises once, so past the
// first iteration this times the Prop 3.2 weakenings and Theorem 3.4
// compositions with their side conditions; BenchmarkArrow* time the
// checks.
func BenchmarkComposedT_C(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := a.BuildPaperProof()
		if err != nil {
			b.Fatal(err)
		}
		if !proof.Stmt.Prob.Equal(prob.NewRat(1, 8)) || !proof.Stmt.Time.Equal(prob.FromInt(13)) {
			b.Fatalf("composed statement %s", proof.Stmt)
		}
	}
}

// E6 (direct): model-check T --13,1/8--> C at horizon 13 in one shot.
func BenchmarkDirectT_C(b *testing.B) {
	a, _, _ := fixtures(b)
	st := a.ComposedStatement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStatement(a.MDP, a.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("composed statement fails directly: %s", r)
		}
	}
}

// E7a: the expected-time recurrence of Section 6.2 (E[V] = 60, bound 63).
func BenchmarkExpectedTimeRecurrence(b *testing.B) {
	a, _, _ := fixtures(b)
	for i := 0; i < b.N; i++ {
		total, err := a.ExpectedTimeBound()
		if err != nil {
			b.Fatal(err)
		}
		if !total.Equal(prob.FromInt(63)) {
			b.Fatalf("bound = %v, want 63", total)
		}
	}
}

// E7b: the measured worst-case expected time via value iteration.
func BenchmarkExpectedTimeMDP(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst, _, err := a.WorstExpectedTime()
		if err != nil {
			b.Fatal(err)
		}
		if worst > 63 {
			b.Fatalf("worst expected time %.4f exceeds 63", worst)
		}
	}
}

// twoCoins is the Example 4.1 system for E8/E9.
type twoCoins struct{ P, Q string }

func twoCoinsAutomaton() *pa.Automaton[twoCoins] {
	return &pa.Automaton[twoCoins]{
		Name:  "two-coins",
		Start: []twoCoins{{P: "?", Q: "?"}},
		Steps: func(s twoCoins) []pa.Step[twoCoins] {
			var steps []pa.Step[twoCoins]
			if s.P == "?" {
				steps = append(steps, pa.Step[twoCoins]{
					Action: "flipP",
					Next:   prob.MustUniform(twoCoins{P: "H", Q: s.Q}, twoCoins{P: "T", Q: s.Q}),
				})
			}
			if s.Q == "?" {
				steps = append(steps, pa.Step[twoCoins]{
					Action: "flipQ",
					Next:   prob.MustUniform(twoCoins{P: s.P, Q: "H"}, twoCoins{P: s.P, Q: "T"}),
				})
			}
			return steps
		},
	}
}

// E8 (Proposition 4.2): exact evaluation of first∩first and next against
// an adaptive adversary, asserting the guaranteed bounds.
func BenchmarkFirstNext(b *testing.B) {
	m := twoCoinsAutomaton()
	hyps := []events.Hypothesis[twoCoins]{
		{Action: "flipP", Pred: func(s twoCoins) bool { return s.P == "H" }, MinProb: prob.Half()},
		{Action: "flipQ", Pred: func(s twoCoins) bool { return s.Q == "T" }, MinProb: prob.Half()},
	}
	firstEvent := events.FirstConjunction(hyps...)
	nextEvent, err := events.NextOf(hyps...)
	if err != nil {
		b.Fatal(err)
	}
	adv := adversary.FirstEnabled(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := exec.FromState(m, adv, twoCoins{P: "?", Q: "?"})
		ivF, err := h.Prob(firstEvent, exec.EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ivN, err := h.Prob(nextEvent, exec.EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if ivF.Lo.Less(prob.NewRat(1, 4)) || ivN.Lo.Less(prob.Half()) {
			b.Fatalf("Proposition 4.2 bounds violated: %v, %v", ivF, ivN)
		}
	}
}

// E9 (Example 4.1): the adaptive adversary shifts the conditional
// probability from 1/4 to 1/2 while the formal event stays at 1/4.
func BenchmarkExample41(b *testing.B) {
	m := twoCoinsAutomaton()
	spiteful := adversary.HistoryDependent(m, func(frag *pa.Fragment[twoCoins], enabled []pa.Step[twoCoins]) int {
		s := frag.Last()
		if s.P == "?" {
			return 0
		}
		if s.P == "H" && s.Q == "?" {
			return 0
		}
		return -1
	})
	event := events.And(
		events.First("flipP", func(s twoCoins) bool { return s.P == "H" }),
		events.First("flipQ", func(s twoCoins) bool { return s.Q == "T" }),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := exec.FromState(m, spiteful, twoCoins{P: "?", Q: "?"})
		iv, err := h.Prob(event, exec.EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if !iv.Exact() || !iv.Lo.Equal(prob.NewRat(1, 4)) {
			b.Fatalf("Example 4.1 probability = %v, want exactly 1/4", iv)
		}
	}
}

// E10 (ablation): the G --5,1/4--> P arrow under the faster k=2
// digitization — the adversary gains speed, the bound must still hold.
func BenchmarkAblationSpeedK(b *testing.B) {
	_, a2, _ := fixtures(b)
	st := a2.PaperStatements()[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStatement(a2.MDP, a2.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("G arrow fails at k=2: %s", r)
		}
	}
}

// E11 (baseline): the Zuck–Pnueli-style qualitative analysis — every
// T-state reaches C with probability 1 under every adversary, with no
// time bound attached.
func BenchmarkBaselineLiveness(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, almostSure := a.QualitativeProgress()
		if total == 0 || total != almostSure {
			b.Fatalf("qualitative progress %d/%d", almostSure, total)
		}
	}
}

// mustCompile compiles a model once outside the timer, as the CLIs do.
func mustCompile[S comparable](b *testing.B, m sched.Model[S]) *sim.Compiled[S] {
	b.Helper()
	cm, err := sim.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

// E12 (scaling): Monte Carlo expected time to C at n=10 under the
// spiteful dense-time scheduler; the paper's bound of 63 must hold with
// slack.
func BenchmarkSimExpectedTime(b *testing.B) {
	const n = 10
	model := mustCompile[dining.State](b, dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunOnce[dining.State](model, dining.Spiteful(), dining.InC, opts, rng)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached || res.ReachedAt > 63 {
			b.Fatalf("run did not reach C within the documented bound: %+v", res)
		}
	}
}

// E12 addendum (parallel scaling): trial throughput of the sharded Monte
// Carlo engine on the Lehmann–Rabin n=8 reach-probability curve. The pool is
// sized by GOMAXPROCS, so `go test -bench ParallelTrials -cpu 1,4`
// records the 1-vs-4-worker scaling reported in EXPERIMENTS.md. Every
// iteration asserts the sharded curve is bit-identical to a one-worker
// reference — the engine's reproducibility guarantee — and the custom
// trials/s metric is the quantity the scaling row tracks. The model is
// compiled once outside the timer (as the CLIs do), so the loop measures
// the warm-cache hot path.
func BenchmarkParallelTrials(b *testing.B) {
	const (
		n      = 8
		trials = 256
	)
	model := mustCompile[dining.State](b, dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	deadlines := make([]float64, 16)
	for i := range deadlines {
		deadlines[i] = float64(i + 1)
	}
	ref, _, err := sim.EstimateCurveParallel[dining.State](context.Background(), model, mk, dining.InC, deadlines, trials, opts,
		sim.ParallelOptions{Workers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := sim.EstimateCurveParallel[dining.State](context.Background(), model, mk, dining.InC, deadlines, trials, opts,
			sim.ParallelOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			b.Fatal("sharded curve differs from the 1-worker reference")
		}
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// E12 addendum (election): parallel time-to-leader trials, each
// iteration compiling the raw model afresh (a cold transition cache).
// The sub-benchmark keeps the "compiled" name of the retired
// compiled-vs-uncompiled pair so its BENCH_sim.json baseline stays
// comparable.
func BenchmarkElectionTrials(b *testing.B) {
	const trials = 512
	model := election.MustNew(3)
	mk := func() sim.Policy[election.State] { return sim.Slowest[election.State]() }
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, rep, err := sim.EstimateTimeToTargetParallel[election.State](context.Background(), model, mk,
				election.State.HasLeader, trials, sim.Options[election.State]{}, sim.ParallelOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != trials {
				b.Fatalf("completed %d/%d trials", rep.Completed, trials)
			}
		}
		b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	})
}

// E12 addendum (consensus): parallel Ben-Or reach-probability trials on a
// cold transition cache, named like BenchmarkElectionTrials.
func BenchmarkConsensusTrials(b *testing.B) {
	const trials = 256
	model := consensus.MustNew(3, 1)
	start, err := model.StartWith([]uint8{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000}
	mk := func() sim.Policy[consensus.State] { return consensus.CrashLastReporter(sim.Random[consensus.State](0)) }
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, rep, err := sim.EstimateReachProbParallel[consensus.State](context.Background(), model, mk,
				consensus.State.AllCorrectDecided, 100, trials, opts, sim.ParallelOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != trials {
				b.Fatalf("completed %d/%d trials", rep.Completed, trials)
			}
		}
		b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	})
}

// The mc-cold job on the engine alone: dining n=8 under the random
// policy, 3,000 trials at seed 1, each iteration compiling the raw model
// afresh, so nearly every trial interns new states and builds samplers.
// trials/s is the cold run's throughput; B/trial is the live heap the
// run's cache retains per trial, read after two collections outside the
// timer. The interned states and records, and with them B/trial, do not
// depend on the host (6.2 KB at one worker and at two), so B/trial is
// held to maxBytesPerTrial on every run, `make bench-smoke`'s included:
// it read 16.6 KB while every interned state also kept the model's steps
// for all 2n process slots.
func BenchmarkColdCache(b *testing.B) {
	const (
		n                = 8
		trials           = 3_000
		maxBytesPerTrial = 8_000
	)
	model := dining.MustNew(n)
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	var retained float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		cm := mustCompile[dining.State](b, model)
		_, rep, err := sim.EstimateReachProbParallel[dining.State](context.Background(), cm, mk, dining.InC, 13, trials,
			opts, sim.ParallelOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != trials {
			b.Fatalf("completed %d/%d trials", rep.Completed, trials)
		}
		b.StopTimer()
		retained = liveHeap() - before
		runtime.KeepAlive(cm)
		b.StartTimer()
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(retained/trials, "B/trial")
	if retained/trials > maxBytesPerTrial {
		b.Fatalf("the cold cache retains %.0f B/trial, above the %d B ceiling", retained/trials, maxBytesPerTrial)
	}
}

// E-extra: the third case study — a full Ben-Or consensus run under the
// targeted crash adversary, asserting agreement on every iteration.
func BenchmarkConsensusRun(b *testing.B) {
	model := consensus.MustNew(3, 1)
	start, err := model.StartWith([]uint8{0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	cm := mustCompile[consensus.State](b, model)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunOnce[consensus.State](cm,
			consensus.CrashLastReporter(sim.Random[consensus.State](0)),
			consensus.State.AllCorrectDecided,
			sim.Options[consensus.State]{Start: start, SetStart: true, MaxEvents: 20000},
			rng)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Final.AgreementHolds() {
			b.Fatal("agreement violated")
		}
	}
}

// E-extra: the second case study — composition of the per-level checks
// for leader election at n=3. An Analysis checks its levels once, so past
// the first iteration this times the composition alone.
func BenchmarkElectionProof(b *testing.B) {
	_, _, e := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := e.BuildProof()
		if err != nil {
			b.Fatal(err)
		}
		if !proof.Stmt.Prob.Equal(prob.MustParseRat("3/8")) {
			b.Fatalf("composed election prob = %v", proof.Stmt.Prob)
		}
	}
}

// E13: the worst-case probability curve (the §7 lower-bound direction):
// exact worst case of P[T reaches C within t] for t = 0..16.
func BenchmarkProgressCurve(b *testing.B) {
	a, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := a.ProgressCurve(16)
		if err != nil {
			b.Fatal(err)
		}
		tight, ok := core.TightestTime(curve, prob.NewRat(1, 8))
		if !ok || tight != 7 {
			b.Fatalf("tightest horizon = %d, %t; want 7", tight, ok)
		}
	}
}

// E-extra: the most-damning schedule for the composed claim, as
// `lrcheck -witness` pays for it: the direct check keeping its strategy
// (core.CheckStrategy), then the walk.
func BenchmarkWorstWitness(b *testing.B) {
	a, _, _ := fixtures(b)
	st := a.ComposedStatement()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.CheckStrategy(a.MDP, a.Index, st)
		if err != nil {
			b.Fatal(err)
		}
		lines, err := a.WorstWitness(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(lines) < 2 || !strings.Contains(lines[0], "worst-case P = 15/16") {
			b.Fatalf("witness %q, want a walk under a 15/16 header", lines)
		}
	}
}

// E-extra: cost of enumerating the digitized product itself (n=3, k=1),
// every product state (the ring's symmetry hidden).
func BenchmarkEnumerateProduct(b *testing.B) {
	model := sched.Unreduced[dining.State](dining.MustNew(3))
	for i := 0; i < b.N; i++ {
		auto, err := sched.Product(model, sched.Config{StepsPerWindow: 1})
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := mdp.Explore(auto, mdp.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if m.NumStates == 0 {
			b.Fatal("empty product")
		}
	}
}

// E22: the exact engine at scale — walk the full dining n=3 k=2 product
// (35,405 states: the ring with its symmetry hidden, sched.Unreduced)
// frontier-by-frontier into CSR form with the on-the-fly explorer and
// model-check the composed T --13,1/8--> C claim on the result, as
// `lrcheck -n 3 -k 2` did before it explored the ring's quotient.
// states/s counts explored states per wall-clock second of the full
// explore+solve loop, and B/state is the resident CSR transition
// structure per explored state, the number that decides how far
// -mem-budget lets a product grow. Both measure the explorer per
// interned state, which a quotient's counts would not.
func BenchmarkExactEngine(b *testing.B) {
	b.ReportAllocs()
	model := sched.Unreduced[dining.State](dining.MustNew(3))
	inT, inC := core.NewSet("T", sched.LiftPred(dining.InT)), core.NewSet("C", sched.LiftPred(dining.InC))
	var states int
	var footprint int64
	for i := 0; i < b.N; i++ {
		auto, err := sched.Product(model, sched.Config{StepsPerWindow: 2})
		if err != nil {
			b.Fatal(err)
		}
		m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.CheckStatement(m, ix, core.Statement[dining.PState]{
			From: inT, To: inC, Time: prob.FromInt(13), Prob: prob.NewRat(1, 8), Schema: core.UnitTimeSchema(2),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("composed statement fails on the explored product: %s", r)
		}
		states = len(ix.States())
		footprint = m.CSR().MemFootprint()
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	b.ReportMetric(float64(footprint)/float64(states), "B/state")
}

// The explore and composed-claim check `lrcheck -n 3 -k 2` runs: the
// dining n=3 k=2 product explored as its quotient by the ring's
// rotations and reflections (6,039 orbits standing for 35,405 product
// states), then T --13,1/8--> C checked on it. states/s counts the
// product states covered per wall-clock second, as perfbench's
// exact-dining throughput does; B/orbit is the CSR per explored orbit.
func BenchmarkQuotientEngine(b *testing.B) {
	b.ReportAllocs()
	var states, orbits int
	var footprint int64
	for i := 0; i < b.N; i++ {
		a, err := dining.NewAnalysisOpts(3, 2, dining.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds {
			b.Fatalf("composed statement fails on the explored quotient: %s", r)
		}
		states, orbits = a.Index.Len(), len(a.Index.States())
		footprint = a.MDP.CSR().MemFootprint()
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	b.ReportMetric(float64(footprint)/float64(orbits), "B/orbit")
}

// The paper's chain on its own: the five arrows of Section 6.2 through
// core.CheckAll on the dining n=3 k=2 product, which is explored once,
// outside the timer — what dining.Analysis.CheckPaperChain runs once per
// analysis, solved afresh on every iteration. Each check solves only the
// forward cone of its source set, and CheckAll runs the statements
// concurrently, so this row moves with the cone and with the worker
// count.
func BenchmarkPaperChain(b *testing.B) {
	a, err := dining.NewAnalysisOpts(3, 2, dining.Opts{})
	if err != nil {
		b.Fatal(err)
	}
	sts := a.PaperStatements()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := core.CheckAll(a.MDP, a.Index, sts...)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.Holds {
				b.Fatalf("paper statement fails: %s", r)
			}
		}
	}
}

// The expected-time solver on its own: MaxExpectedTicks and
// MinExpectedTicks to C on the dining n=3 k=2 product, which is explored
// once, outside the timer. BenchmarkExactEngine never runs value
// iteration; this row does nothing else (the qualitative precomputation
// each solve needs included).
func BenchmarkExpectedTicks(b *testing.B) {
	a, err := dining.NewAnalysisOpts(3, 2, dining.Opts{})
	if err != nil {
		b.Fatal(err)
	}
	target := a.Index.Mask(sched.LiftPred(dining.InC))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MDP.MaxExpectedTicks(target); err != nil {
			b.Fatal(err)
		}
		if _, err := a.MDP.MinExpectedTicks(target); err != nil {
			b.Fatal(err)
		}
	}
}

// Observability overhead: the same parallel run with the telemetry hook
// disabled (nil Metrics — the default every existing caller gets) and
// enabled (the registry-backed obs.SimMetrics the CLIs install). The
// acceptance criterion is the allocs/op column: both modes must report the
// same allocation count, proving instrumentation adds zero allocations to
// the per-trial hot path; the ns/op delta is the (atomic-counter) price of
// a live progress display.
func BenchmarkMetricsOverhead(b *testing.B) {
	const (
		n      = 8
		trials = 256
	)
	model := mustCompile[dining.State](b, dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }

	modes := []struct {
		name string
		met  sim.Metrics
	}{
		{"disabled", nil},
		{"enabled", obs.NewSimMetrics(obs.NewRegistry(), trials)},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
					13, trials, opts, sim.ParallelOptions{Seed: 1, Metrics: mode.met})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}

	// The ≤2% overhead budget, as an assertion on paired ratios.
	b.Run("overhead", func(b *testing.B) {
		met := obs.NewSimMetrics(obs.NewRegistry(), trials)
		run := func(met sim.Metrics) func() time.Duration {
			return func() time.Duration {
				start := time.Now()
				_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
					13, trials, opts, sim.ParallelOptions{Seed: 1, Metrics: met})
				if err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
		}
		pairedOverhead(b, "metrics", run(nil), run(met))
	})
}

// pairedOverhead is the ≤2% overhead budget of a seam as an assertion,
// shared by the metrics, span and breaker gates. Each iteration times
// both modes back to back (order alternating to cancel drift) and
// contributes one on/off ratio; the reported metric is the median
// ratio, but the gate trips on the *lower quartile*: noise is symmetric
// between the paired halves, so unless the true overhead really exceeds
// 2% even the quietest quarter of pairs will not — a real regression (a
// per-trial span, a reflective encoder on the write path) shifts the
// whole distribution and still fails decisively. Cross-mode minima
// proved too fragile on a small host, where run-level throughput drifts
// by several percent. One sample proves nothing, so the gate only trips
// at b.N >= 3: `-benchtime=1x` smoke runs pass through, `make bench`
// enforces it.
func pairedOverhead(b *testing.B, seam string, off, on func() time.Duration) {
	ratios := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		var d0, d1 time.Duration
		if i%2 == 0 {
			d0, d1 = off(), on()
		} else {
			d1, d0 = on(), off()
		}
		ratios = append(ratios, float64(d1)/float64(d0))
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2] - 1
	q25 := ratios[len(ratios)/4] - 1
	b.ReportMetric(100*median, "overhead-%")
	if b.N >= 3 && q25 > 0.02 {
		b.Fatalf("%s overhead exceeds the 2%% budget: lower quartile %.1f%%, median %.1f%% over %d paired ratios",
			seam, 100*q25, 100*median, len(ratios))
	}
}

// BenchmarkSpanOverhead pins the cost of the chunk-lifecycle span seam
// (sim.ParallelOptions.SpanHooks) on the dining headline workload.
// Disabled hooks must cost one nil check per chunk and zero extra
// allocations per trial; enabled hooks (two spans' worth of JSONL per
// 64-trial chunk) must stay under the same 2% budget as the metrics
// seam, on the same paired-ratio gate (pairedOverhead).
func BenchmarkSpanOverhead(b *testing.B) {
	// 1024 trials = 16 chunks per sample: long enough that the 2%
	// budget (~100µs) sits above single-core scheduler jitter, which
	// drowned the gate at 256 trials, while keeping samples short
	// enough for ~100 measurement pairs per run.
	const (
		n      = 8
		trials = 1024
	)
	model := mustCompile[dining.State](b, dining.MustNew(n))
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	mk := func() sim.Policy[dining.State] { return dining.KeepTrying(sim.Random[dining.State](0.5)) }
	tracer := span.New(io.Discard, span.Options{Service: "bench"})
	root := tracer.Start("job", span.SpanContext{})
	defer func() {
		root.End()
		tracer.Close()
	}()

	modes := []struct {
		name  string
		hooks sim.SpanHooks
	}{
		{"disabled", nil},
		{"enabled", span.ChunkSpans(tracer, root.Context())},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
					13, trials, opts, sim.ParallelOptions{Seed: 1, SpanHooks: mode.hooks})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}

	// The ≤2% budget as an assertion on paired ratios.
	b.Run("overhead", func(b *testing.B) {
		hooks := span.ChunkSpans(tracer, root.Context())
		run := func(h sim.SpanHooks) func() time.Duration {
			return func() time.Duration {
				start := time.Now()
				_, _, err := sim.EstimateReachProbParallel[dining.State](context.Background(), model, mk, dining.InC,
					13, trials, opts, sim.ParallelOptions{Seed: 1, SpanHooks: h})
				if err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
		}
		pairedOverhead(b, "span", run(nil), run(hooks))
	})
}

// BenchmarkBreakerOverhead pins the cost of the worker's circuit
// breaker on the RPC hot path. Every fabric RPC a worker sends is
// bracketed by Allow/Record on a fault.Breaker (two mutex round trips);
// the benchmark measures real loopback HTTP POSTs bare and bracketed,
// and the gate asserts the bracketed path stays within the same 2%
// budget as the metrics and span seams. Loopback HTTP on a shared box
// is far noisier than the in-process engine runs, so each sample is a
// batch of round trips, gated by the same paired ratios (pairedOverhead).
func BenchmarkBreakerOverhead(b *testing.B) {
	// 64 round trips per sample: a closed-breaker Allow/Record pair
	// costs tens of nanoseconds against a ~100µs loopback POST, so the
	// batch exists to average per-request scheduler jitter, not to make
	// the overhead visible — the gate proves a *regression* (a syscall,
	// an allocation, contention on the breaker lock) would be caught.
	const rpcs = 64
	body := []byte(`{"lease":"bench","chunk":0}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	client := srv.Client()

	post := func() error {
		resp, err := client.Post(srv.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	br := fault.NewBreaker(fault.BreakerOptions{})
	// batch times one sample of rpcs round trips, each bracketed the way
	// internal/fabric.Worker brackets its RPCs when a breaker is set: a
	// transport error is Recorded as failure, any HTTP response as
	// success.
	batch := func(br *fault.Breaker) time.Duration {
		start := time.Now()
		for i := 0; i < rpcs; i++ {
			if br == nil {
				if err := post(); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if err := br.Allow(); err != nil {
				b.Fatal(err)
			}
			err := post()
			br.Record(err)
			if err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}

	modes := []struct {
		name string
		br   *fault.Breaker
	}{
		{"bare", nil},
		{"breaker", br},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch(mode.br)
			}
			b.ReportMetric(float64(rpcs)*float64(b.N)/b.Elapsed().Seconds(), "rpcs/s")
		})
	}

	// The ≤2% budget as an assertion on paired ratios.
	b.Run("overhead", func(b *testing.B) {
		pairedOverhead(b, "breaker", func() time.Duration { return batch(nil) }, func() time.Duration { return batch(br) })
	})
}
