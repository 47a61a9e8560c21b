// Command electcheck runs the second case study: randomized leader
// election by coin flipping, analyzed with the same proof method as the
// Lehmann–Rabin algorithm — per-level arrow statements, Proposition 3.2
// weakening, Theorem 3.4 composition, and an expected-time bound from
// per-level retry loops, each validated against the exact worst case of
// the digitized Unit-Time product. The product is generated on the fly
// into compressed-sparse-row form (sharing the Monte Carlo engine's
// compiled transition cache) and solved by -workers parallel sweeps, so
// sizes far beyond the dense enumerator's practical limit stay exact;
// -mem-budget caps the resident transition structure.
//
// With -sample, the exact analysis is cross-validated by dense-time Monte
// Carlo: the requested number of election runs is sharded across a worker
// pool (-workers) by the parallel engine in internal/sim, and the sampled
// expected election time is compared against the derived bound. For a
// fixed -seed the sampled estimate is bit-identical for any worker count.
//
// The sampling stage is resilient: SIGINT/SIGTERM or an expired -budget
// drains in-flight chunks and prints the partial estimate with its
// completed-trial count; -checkpoint/-resume persist and restore progress
// bit-identically, and -quarantine tolerates panicking trials (each
// recorded with a single-RunOnce repro seed).
//
// The run is observable with the same flags as lrsim: -progress for a
// live sampling progress line, -manifest for a JSONL run manifest,
// -metrics-out for a final metrics snapshot, -pprof for live profiling,
// -trace-out for a JSONL trace (one span per sampling chunk under a root
// job span) that cmd/simtrace merges into a timeline.
//
// Usage:
//
//	electcheck [-n procs] [-k steps-per-window] [-mem-budget bytes] \
//	           [-sample trials] [-workers N] [-seed 1] \
//	           [-budget 10m] [-checkpoint state.json] [-resume state.json] \
//	           [-keep 3] [-quarantine N] [-trial-timeout 30s] \
//	           [-progress 2s] [-manifest run.jsonl] [-trace-out run.trace] \
//	           [-metrics-out metrics.json] [-pprof localhost:6060]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/election"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "electcheck:", err)
		os.Exit(1)
	}
}

// usageError reports a bad flag value together with the usage text.
func usageError(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("electcheck", flag.ContinueOnError)
	n := fs.Int("n", 4, "number of processes")
	k := fs.Int("k", 1, "steps per process per unit-time window")
	sample := fs.Int("sample", 0, "also run this many dense-time Monte Carlo election trials (0 = off)")
	workers := fs.Int("workers", 0, "worker goroutines for the exact-engine sweeps and for sharding -sample trials (0 = all CPUs; results are identical for any value)")
	memBudget := fs.Int64("mem-budget", 0, "abort exact enumeration beyond this many bytes of transition structure (0 = unlimited)")
	seed := fs.Int64("seed", 1, "root seed for -sample trials (reproducible for any -workers)")
	budget := fs.Duration("budget", 0, "wall-clock budget for the whole run; on expiry the sampling stage drains and prints partial estimates (0 = none)")
	checkpoint := fs.String("checkpoint", "", "persist -sample progress to this JSON state file as trials complete")
	resume := fs.String("resume", "", "resume -sample from this state file (and keep updating it); bit-identical to an uninterrupted run")
	quarantine := fs.Int("quarantine", 0, "panicking -sample trials tolerated (recorded with repro seeds, excluded) before aborting")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-trial watchdog: quarantine a -sample trial that runs longer than this wall-clock budget (0 = off)")
	keep := fs.Int("keep", 3, "checkpoint generations to retain (current + keep-1 backups); loads fall back to the newest valid one")
	progress := fs.Duration("progress", 0, "print a live -sample progress line to stderr at this interval (0 = off)")
	manifest := fs.String("manifest", "", "record a JSONL run manifest (events + final summary) to this file")
	traceOut := fs.String("trace-out", "", "record a JSONL trace (one span per -sample chunk under a root job span) to this file; analyze with simtrace")
	metricsOut := fs.String("metrics-out", "", "write the final metrics registry snapshot as JSON to this file")
	pprof := fs.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address for the duration of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *n <= 0:
		return usageError(fs, "-n must be positive, got %d", *n)
	case *k <= 0:
		return usageError(fs, "-k must be positive, got %d", *k)
	case *sample < 0:
		return usageError(fs, "-sample must be >= 0, got %d", *sample)
	case *workers < 0:
		return usageError(fs, "-workers must be >= 0, got %d", *workers)
	case *budget < 0:
		return usageError(fs, "-budget must be >= 0, got %v", *budget)
	case *memBudget < 0:
		return usageError(fs, "-mem-budget must be >= 0, got %d", *memBudget)
	case *quarantine < 0:
		return usageError(fs, "-quarantine must be >= 0, got %d", *quarantine)
	case *trialTimeout < 0:
		return usageError(fs, "-trial-timeout must be >= 0, got %v", *trialTimeout)
	case *keep < 1:
		return usageError(fs, "-keep must be >= 1, got %d", *keep)
	case *progress < 0:
		return usageError(fs, "-progress must be >= 0, got %v", *progress)
	}

	flagValues := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { flagValues[f.Name] = f.Value.String() })
	ins, err := obs.Setup(obs.Config{
		Tool:        "electcheck",
		Seed:        *seed,
		Options:     flagValues,
		Resume:      *resume,
		TotalTrials: *sample,
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
		tracer, err = span.Open(*traceOut, span.Options{Service: "electcheck"})
		if err != nil {
			return err
		}
	}
	root := tracer.Start("job", span.SpanContext{},
		span.Str("tool", "electcheck"), span.Int("n", *n), span.Int("k", *k),
		span.Int("sample", *sample), span.Int64("seed", *seed))

	runErr := analysis(ctx, ins, tracer, root.Context(), *n, *k, *sample, *workers, *memBudget, *seed, *budget,
		*checkpoint, *resume, *quarantine, *trialTimeout, *keep)
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

func analysis(ctx context.Context, ins *obs.Instrumentation, tracer *span.Tracer, traceParent span.SpanContext,
	n, k, sample, workers int, memBudget, seed int64,
	budget time.Duration, checkpoint, resume string, quarantine int,
	trialTimeout time.Duration, keep int) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // second signal kills the process the default way
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, budget, fmt.Errorf("wall-clock budget %v expired", budget))
		defer cancel()
	}

	fmt.Printf("coin-flipping leader election: n=%d, digitized Unit-Time with k=%d\n", n, k)
	a, err := election.NewAnalysisOpts(n, k, election.Opts{Workers: workers, MemBudget: memBudget})
	if err != nil {
		return err
	}
	fmt.Printf("enumerated product: %d states\n\n", a.Index.Len())

	fmt.Println("Per-level arrows (round rule), worst case over all digitized adversaries:")
	results, err := a.CheckLevels()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "statement\tclaimed p\tmeasured worst p\tverdict")
	allHold := true
	for _, r := range results {
		verdict := "HOLDS"
		if !r.Holds {
			verdict = "FAILS"
			allHold = false
		}
		fmt.Fprintf(tw, "%s --%v--> %s\t%v\t%v\t%s\n",
			r.Stmt.From.Name, r.Stmt.Time, r.Stmt.To.Name, r.Stmt.Prob, r.WorstProb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	proof, err := a.BuildProof()
	if err != nil {
		return err
	}
	fmt.Println("\nComposed derivation:")
	fmt.Print(proof.Render())

	bound, err := a.ExpectedTimeBound()
	if err != nil {
		return err
	}
	worst, err := a.WorstExpectedTime()
	if err != nil {
		return err
	}
	fmt.Printf("\nExpected election time: derived bound Σ 2/p_k = %v ≈ %.4f; measured worst case %.4f\n",
		bound, bound.Float64(), worst)

	if sample > 0 {
		raw, err := election.New(n)
		if err != nil {
			return err
		}
		model, err := sim.Compile[election.State](raw)
		if err != nil {
			return err
		}
		store := &sim.ArtifactStore{Keep: keep}
		if sm := ins.Metrics(); sm != nil {
			store.Metrics = sm
		}
		ckPath := checkpoint
		if ckPath == "" {
			ckPath = resume
		}
		popts := sim.ParallelOptions{Workers: workers, Seed: seed, MaxPanics: quarantine,
			TrialTimeout: trialTimeout}
		if sm := ins.Metrics(); sm != nil {
			popts.Metrics = sm
		}
		// The nil-tracer gate must stay explicit: assigning a typed-nil
		// *ChunkSpanner to the SpanHooks interface would defeat the
		// engine's nil check.
		if tracer != nil {
			popts.SpanHooks = span.ChunkSpans(tracer, traceParent, span.Str("stage", "sample"))
			popts.PprofLabels = []string{"fabric_job", fmt.Sprintf("electcheck-n%d-s%d", n, seed), "stage", "sample"}
		}
		var cs sim.CheckpointSet
		const label = "sample"
		if ckPath != "" {
			if resume != "" {
				loaded, info, lerr := store.Load(resume)
				if lerr != nil {
					return lerr
				}
				cs = loaded
				if len(info.Corrupt) > 0 {
					fmt.Fprintf(os.Stderr, "electcheck: corrupt checkpoint generation(s) skipped: %s\n",
						strings.Join(info.Corrupt, ", "))
				}
				if info.Generation > 0 {
					fmt.Fprintf(os.Stderr, "electcheck: resuming from backup generation %d (%s)\n",
						info.Generation, info.Path)
				}
			} else {
				cs = sim.CheckpointSet{}
			}
			popts.Resume = cs[label]
			popts.CheckpointSink = func(cp *sim.Checkpoint) error {
				cs[label] = cp
				return store.Save(ckPath, cs)
			}
		}
		ins.PhaseStart(label)
		sum, rep, err := sim.EstimateTimeToTargetParallel[election.State](ctx, model,
			func() sim.Policy[election.State] { return sim.Slowest[election.State]() },
			election.State.HasLeader, sample,
			sim.Options[election.State]{}, popts)
		ins.PhaseDone(label, sum.String(), rep.String(), err)
		if rep.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "electcheck: %d trials quarantined (%d panicked, %d stalled):\n",
				rep.Quarantined, rep.Quarantined-rep.Stalled, rep.Stalled)
			for _, pr := range rep.Panics {
				verb := "panicked"
				if pr.Kind == sim.RecordStalled {
					verb = "stalled"
				}
				fmt.Fprintf(os.Stderr, "  trial %d %s: %s — replay: sim.ReproTrial(..., %d, %d)\n", pr.Trial, verb, pr.Value, seed, pr.Trial)
			}
		}
		if errors.Is(err, sim.ErrInterrupted) {
			fmt.Printf("\nMonte Carlo cross-check interrupted: %s\n", rep)
			if rep.Completed > 0 {
				fmt.Printf("partial time to leader: %s (no bound verdict from a partial sample)\n", sum.String())
			}
			if ckPath != "" {
				fmt.Printf("resume bit-identically with: electcheck -resume %s (plus the original flags)\n", ckPath)
			} else {
				fmt.Println("(run with -checkpoint FILE to make interrupted progress resumable)")
			}
			return fmt.Errorf("interrupted after %d/%d sampled trials: %w", rep.Completed, rep.Total, context.Cause(ctx))
		}
		if err != nil {
			return err
		}
		mean, err := sum.Mean()
		if err != nil {
			return err
		}
		fmt.Printf("\nMonte Carlo cross-check (%d dense-time trials, slowest scheduler): time to leader %s\n",
			sample, sum.String())
		if mean > bound.Float64() {
			return fmt.Errorf("sampled mean election time %.4f exceeds the derived bound %.4f", mean, bound.Float64())
		}
	}

	if !allHold {
		return fmt.Errorf("some level statements fail")
	}
	return nil
}
