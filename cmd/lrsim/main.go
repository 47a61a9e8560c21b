// Command lrsim runs the dense-time Monte Carlo experiments for the
// Lehmann–Rabin reproduction: for each requested ring size and scheduling
// policy it estimates the probability that some process enters its
// critical region within a deadline (the paper claims at least 1/8 within
// time 13 from any trying state), and the expected time to the critical
// region (the paper bounds it by 63).
//
// Unlike cmd/lrcheck, which quantizes the adversary class and computes
// exact worst cases, lrsim explores the paper's dense-time Unit-Time
// schema directly, one programmable adversary at a time — including a
// malicious history-aware scheduler that manufactures resource conflicts.
//
// Trials are sharded across a worker pool (-workers, default all CPUs) by
// the parallel engine in internal/sim; for a fixed -seed the estimates are
// bit-identical whatever the worker count, so -workers only changes
// wall-clock time.
//
// The run is resilient: SIGINT/SIGTERM or an expired -budget drains
// in-flight work and prints partial estimates (with the trial count
// actually completed) instead of discarding everything; -checkpoint
// persists chunk-granularity progress as a JSON state file, and -resume
// continues from one bit-identically — a resumed run prints exactly the
// estimates an uninterrupted run would have. Panicking trials are
// quarantined up to -quarantine, each recorded with the trial index that
// replays the crash in a single sim.ReproTrial.
//
// The run is observable: -progress prints a live line (trials/sec, ETA,
// running estimate with confidence half-width, quarantine count,
// checkpoint age) at the given interval; -manifest records a JSONL event
// log plus a final JSON summary (seed, every flag value, build version,
// per-phase timings, metrics snapshot) that documents the run and replays
// it (obs.ReplayArgs); -metrics-out dumps the final metrics registry as
// JSON; -pprof serves net/http/pprof, expvar and the live metrics on the
// given address for the duration of the run; -trace-out records a span
// per sweep chunk (stamped with its stage label) under one root job span
// as a JSONL trace that cmd/simtrace merges into a timeline. All of it
// rides the engine's telemetry hook, which costs nothing when no flag is
// set.
//
// Usage:
//
//	lrsim [-sizes 3,5,8] [-policies slowest,random,spiteful] \
//	      [-trials 2000] [-within 13] [-seed 1] [-workers N] \
//	      [-budget 10m] [-checkpoint state.json] [-resume state.json] \
//	      [-keep 3] [-quarantine N] [-trial-timeout 30s] \
//	      [-progress 2s] [-manifest run.jsonl] [-trace-out run.trace] \
//	      [-metrics-out metrics.json] [-pprof localhost:6060]
//
// The model is compiled once per ring size (sim.Compile: a shared
// transition cache plus alias-table samplers) and reused across every
// estimate, so later stages run fully warm.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/dining"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrsim:", err)
		os.Exit(1)
	}
}

// usageError reports a bad flag value together with the usage text.
func usageError(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("lrsim", flag.ContinueOnError)
	sizes := fs.String("sizes", "3,5,8", "comma-separated ring sizes")
	policies := fs.String("policies", "slowest,random,spiteful", "comma-separated policies (slowest, random, spiteful, paced:<alpha>)")
	trials := fs.Int("trials", 2000, "Monte Carlo trials per configuration")
	within := fs.Float64("within", 13, "deadline for the probability estimate")
	seed := fs.Int64("seed", 1, "random seed (per-trial streams are derived from it; results are reproducible for any -workers)")
	workers := fs.Int("workers", 0, "worker goroutines sharding the trials (0 = all CPUs)")
	curveMax := fs.Int("curve", 0, "also print the empirical reach-probability curve up to this deadline")
	budget := fs.Duration("budget", 0, "wall-clock budget; on expiry in-flight chunks drain and partial estimates print with a resume token (0 = none)")
	checkpoint := fs.String("checkpoint", "", "persist chunk-granularity progress to this JSON state file as trials complete")
	resume := fs.String("resume", "", "resume from this state file (and keep updating it); the final estimates are bit-identical to an uninterrupted run")
	quarantine := fs.Int("quarantine", 0, "panicking or stalled trials tolerated per estimate (recorded with repro seeds, excluded from it) before aborting")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-trial watchdog: quarantine a trial that runs longer than this wall-clock budget (0 = off)")
	keep := fs.Int("keep", 3, "checkpoint generations to retain (state.json, state.json.g1, ...); loads fall back to the newest valid one")
	progress := fs.Duration("progress", 0, "print a live progress line to stderr at this interval (0 = off)")
	manifest := fs.String("manifest", "", "record a JSONL run manifest (events + final summary) to this file")
	traceOut := fs.String("trace-out", "", "record a JSONL trace (one span per sweep chunk under a root job span) to this file; analyze with simtrace")
	metricsOut := fs.String("metrics-out", "", "write the final metrics registry snapshot as JSON to this file")
	pprof := fs.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address for the duration of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *trials <= 0:
		return usageError(fs, "-trials must be positive, got %d", *trials)
	case *workers < 0:
		return usageError(fs, "-workers must be >= 0, got %d", *workers)
	case *within <= 0:
		return usageError(fs, "-within must be positive, got %g", *within)
	case *curveMax < 0:
		return usageError(fs, "-curve must be >= 0, got %d", *curveMax)
	case *budget < 0:
		return usageError(fs, "-budget must be >= 0, got %v", *budget)
	case *quarantine < 0:
		return usageError(fs, "-quarantine must be >= 0, got %d", *quarantine)
	case *progress < 0:
		return usageError(fs, "-progress must be >= 0, got %v", *progress)
	case *trialTimeout < 0:
		return usageError(fs, "-trial-timeout must be >= 0, got %v", *trialTimeout)
	case *keep < 1:
		return usageError(fs, "-keep must be >= 1, got %d", *keep)
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return usageError(fs, "%v", err)
	}
	names := strings.Split(*policies, ",")

	// The manifest records every flag at its effective value: together
	// with the tool name this is the full reproduction recipe.
	flagValues := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { flagValues[f.Name] = f.Value.String() })
	stages := 2 * len(ns) * len(names)
	if *curveMax > 0 {
		stages++
	}
	ins, err := obs.Setup(obs.Config{
		Tool:        "lrsim",
		Seed:        *seed,
		Options:     flagValues,
		Resume:      *resume,
		TotalTrials: stages * *trials,
		Progress:    *progress,
		MetricsOut:  *metricsOut,
		Manifest:    *manifest,
		Pprof:       *pprof,
	})
	if err != nil {
		return usageError(fs, "%v", err)
	}

	// A tracer when -trace-out is set, else nil: every span call below
	// no-ops on the nil tracer, so the untraced run pays one nil check.
	var tracer *span.Tracer
	if *traceOut != "" {
		tracer, err = span.Open(*traceOut, span.Options{Service: "lrsim"})
		if err != nil {
			return err
		}
	}
	root := tracer.Start("job", span.SpanContext{},
		span.Str("tool", "lrsim"), span.Str("sizes", *sizes), span.Str("policies", *policies),
		span.Int("trials", *trials), span.Int64("seed", *seed))

	// The experiment body runs inside a closure so every exit path —
	// success, interrupt, estimator error — flushes the instrumentation
	// sinks with the run's actual outcome.
	runErr := func() error {
		return experiments(ctx, ins, params{
			ns: ns, names: names, trials: *trials, within: *within,
			seed: *seed, workers: *workers, curveMax: *curveMax,
			budget: *budget, checkpoint: *checkpoint, resume: *resume,
			quarantine: *quarantine, trialTimeout: *trialTimeout, keep: *keep,
			tracer: tracer, traceParent: root.Context(),
		})
	}()
	outcome := "complete"
	if runErr != nil {
		outcome = "error"
	}
	root.End(span.Str("outcome", outcome))
	if cerr := tracer.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if cerr := ins.Close(runErr); cerr != nil && runErr == nil {
		runErr = cerr
	}
	return runErr
}

// params carries the validated flag values into the experiment body.
type params struct {
	ns           []int
	names        []string
	trials       int
	within       float64
	seed         int64
	workers      int
	curveMax     int
	budget       time.Duration
	checkpoint   string
	resume       string
	quarantine   int
	trialTimeout time.Duration
	keep         int
	tracer       *span.Tracer
	traceParent  span.SpanContext
}

func experiments(ctx context.Context, ins *obs.Instrumentation, p params) error {
	ns, names := p.ns, p.names

	// SIGINT/SIGTERM cancel the context for a graceful drain; stop() is
	// re-armed the moment that happens, so a second signal kills the
	// process the default way instead of being swallowed.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if p.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, p.budget, fmt.Errorf("wall-clock budget %v expired", p.budget))
		defer cancel()
	}

	// The checkpoint state file maps a stage label (size × policy ×
	// estimator) to its resume token; -resume without -checkpoint keeps
	// updating the same file. All state-file I/O goes through the durable
	// artifact store: checksummed envelopes, -keep generations, automatic
	// fallback to the newest valid one, retried transient write faults.
	store := &sim.ArtifactStore{Keep: p.keep}
	if sm := ins.Metrics(); sm != nil {
		store.Metrics = sm
	}
	ckPath := p.checkpoint
	if ckPath == "" {
		ckPath = p.resume
	}
	var cs sim.CheckpointSet
	if p.resume != "" {
		loaded, info, err := store.Load(p.resume)
		if err != nil {
			return err
		}
		cs = loaded
		if len(info.Corrupt) > 0 {
			fmt.Fprintf(os.Stderr, "lrsim: corrupt checkpoint generation(s) skipped: %s\n", strings.Join(info.Corrupt, ", "))
		}
		if info.Generation > 0 {
			fmt.Fprintf(os.Stderr, "lrsim: resuming from backup generation %d (%s)\n", info.Generation, info.Path)
		}
	} else if ckPath != "" {
		cs = sim.CheckpointSet{}
	}
	// One compiled model per ring size, shared by every stage that uses
	// that size (reach, time, curve): the transition cache built during
	// the first estimate serves the rest warm.
	models := map[int]*sim.Compiled[dining.State]{}
	newModel := func(n int) (*sim.Compiled[dining.State], error) {
		if m, ok := models[n]; ok {
			return m, nil
		}
		raw, err := dining.New(n)
		if err != nil {
			return nil, err
		}
		m, err := sim.Compile[dining.State](raw)
		if err != nil {
			return nil, err
		}
		models[n] = m
		return m, nil
	}
	makePopts := func(label string) sim.ParallelOptions {
		popts := sim.ParallelOptions{Workers: p.workers, Seed: p.seed, MaxPanics: p.quarantine,
			TrialTimeout: p.trialTimeout}
		if sm := ins.Metrics(); sm != nil {
			popts.Metrics = sm
		}
		// The nil-tracer gate must stay explicit: assigning a typed-nil
		// *ChunkSpanner to the SpanHooks interface would defeat the
		// engine's nil check.
		if p.tracer != nil {
			popts.SpanHooks = span.ChunkSpans(p.tracer, p.traceParent, span.Str("stage", label))
			popts.PprofLabels = []string{"fabric_job", fmt.Sprintf("lrsim-s%d", p.seed), "stage", label}
		}
		if cs != nil {
			popts.Resume = cs[label]
			popts.CheckpointSink = func(cp *sim.Checkpoint) error {
				cs[label] = cp
				return store.Save(ckPath, cs)
			}
		}
		return popts
	}

	fmt.Printf("Lehmann–Rabin Monte Carlo: start = all processes trying (flip-ready), trials = %d\n", p.trials)
	fmt.Printf("paper claims: P[reach C within 13] >= 1/8 = 0.125 from any trying state; E[time to C] <= 63\n\n")

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\tpolicy\tP[C within %g] (95%% Wilson)\tE[time to C] (95%% CI)\n", p.within)

	// interrupted finalizes a partially completed run: flush what we
	// have, point at the resume token, and report the cancellation cause.
	interrupted := func(stage string, rep sim.RunReport) error {
		tw.Flush()
		fmt.Printf("\ninterrupted during %s: %s\n", stage, rep)
		if ckPath != "" {
			fmt.Printf("resume bit-identically with: lrsim -resume %s (plus the original flags)\n", ckPath)
		} else {
			fmt.Println("(run with -checkpoint FILE to make interrupted progress resumable)")
		}
		return fmt.Errorf("interrupted during %s after %d/%d trials: %w",
			stage, rep.Completed, rep.Total, context.Cause(ctx))
	}

	for _, n := range ns {
		for _, name := range names {
			name = strings.TrimSpace(name)
			model, err := newModel(n)
			if err != nil {
				return err
			}
			mk, err := dining.PolicyByName(name)
			if err != nil {
				return err
			}
			opts := sim.Options[dining.State]{
				Start:    dining.AllAt(n, dining.F),
				SetStart: true,
			}
			stage := fmt.Sprintf("n=%d/%s", n, name)
			ins.PhaseStart(stage + "/reach")
			probEst, probRep, err := sim.EstimateReachProbParallel[dining.State](ctx, model, mk, dining.InC,
				p.within, p.trials, opts, makePopts(stage+"/reach"))
			ins.PhaseDone(stage+"/reach", probEst.String(), probRep.String(), err)
			reportQuarantine(stage+"/reach", probRep)
			if errors.Is(err, sim.ErrInterrupted) {
				if probRep.Completed > 0 {
					fmt.Fprintf(tw, "%d\t%s\t%s [partial: %s]\t-\n", n, name, probEst.String(), probRep)
				}
				return interrupted(stage+"/reach", probRep)
			}
			if err != nil {
				return err
			}
			ins.PhaseStart(stage + "/time")
			timeEst, timeRep, err := sim.EstimateTimeToTargetParallel[dining.State](ctx, model, mk, dining.InC,
				p.trials, opts, makePopts(stage+"/time"))
			ins.PhaseDone(stage+"/time", timeEst.String(), timeRep.String(), err)
			reportQuarantine(stage+"/time", timeRep)
			if errors.Is(err, sim.ErrInterrupted) {
				fmt.Fprintf(tw, "%d\t%s\t%s\t%s [partial: %s]\n", n, name, probEst.String(), timeEst.String(), timeRep)
				return interrupted(stage+"/time", timeRep)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n", n, name, probEst.String(), timeEst.String())
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if p.curveMax > 0 {
		n := ns[0]
		name := strings.TrimSpace(names[0])
		model, err := newModel(n)
		if err != nil {
			return err
		}
		mk, err := dining.PolicyByName(name)
		if err != nil {
			return err
		}
		deadlines := make([]float64, p.curveMax)
		for i := range deadlines {
			deadlines[i] = float64(i + 1)
		}
		stage := fmt.Sprintf("n=%d/%s/curve@%d", n, name, p.curveMax)
		ins.PhaseStart(stage)
		curve, curveRep, err := sim.EstimateCurveParallel[dining.State](ctx, model, mk, dining.InC, deadlines, p.trials,
			sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true},
			makePopts(stage))
		ins.PhaseDone(stage, fmt.Sprintf("curve over %d deadlines", len(curve.Deadlines)), curveRep.String(), err)
		reportQuarantine(stage, curveRep)
		partial := ""
		if errors.Is(err, sim.ErrInterrupted) {
			if curveRep.Completed == 0 {
				return interrupted(stage, curveRep)
			}
			partial = fmt.Sprintf(" [partial: %s]", curveRep)
		} else if err != nil {
			return err
		}
		fmt.Printf("\nempirical P[C within t] at n=%d under %s (the Monte Carlo analogue of lrcheck -curve)%s:\n", n, name, partial)
		for i := range curve.Deadlines {
			est, lo, hi, err := curve.Point(i)
			if err != nil {
				return err
			}
			fmt.Printf("  t=%-4g %.4f [%.4f, %.4f]\n", curve.Deadlines[i], est, lo, hi)
		}
		if partial != "" {
			return interrupted(stage, curveRep)
		}
	}
	return nil
}

// reportQuarantine lists quarantined trials — panics and watchdog stalls
// — with their repro seeds; the quarantine keeps a crashing or stuck
// trial from killing the run, but every one stays loudly visible and
// individually replayable.
func reportQuarantine(stage string, rep sim.RunReport) {
	if rep.Quarantined == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "lrsim: %s: %d trials quarantined (%d panicked, %d stalled; excluded from the estimate):\n",
		stage, rep.Quarantined, rep.Quarantined-rep.Stalled, rep.Stalled)
	for _, pr := range rep.Panics {
		verb := "panicked"
		if pr.Kind == sim.RecordStalled {
			verb = "stalled"
		}
		fmt.Fprintf(os.Stderr, "  trial %d %s: %s — replay: sim.ReproTrial with the run's root seed and trial %d (trial RNG seed %d)\n", pr.Trial, verb, pr.Value, pr.Trial, pr.Seed)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad ring size %q: %v", part, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("ring size must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}
