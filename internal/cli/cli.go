// Package cli is the run harness of the sampling commands lrsim and
// electcheck; simd shares its signal context and quarantine report.
// AddFlags registers the run flags, and Start opens a Run from them:
//
//   - Resilience. SIGINT/SIGTERM or an expired -budget drains in-flight
//     chunks, so the command prints partial estimates over the trials
//     actually completed. -checkpoint persists chunk-granularity progress
//     to a JSON state file, and -resume continues from one
//     bit-identically. -quarantine tolerates panicking trials and those
//     the -trial-timeout watchdog stops, each reported with the
//     sim.ReproTrial call that replays it.
//   - Observability. -progress prints a live line, -manifest records a
//     JSONL manifest that obs.ReplayArgs replays, -metrics-out writes the
//     final metrics snapshot, -pprof serves live profiles, and -trace-out
//     records one span per sweep chunk, stamped with its stage, under a
//     root job span. With none set, the engine pays a nil check.
//
// Each estimate takes its sim.ParallelOptions from Run.Stage and reports
// through Run.Done, so the next such feature lands here once.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// Flags holds the run flags of a sampling command.
type Flags struct {
	Seed                                  int64
	Workers, Keep, Quarantine             int
	Budget, TrialTimeout, Progress        time.Duration
	Checkpoint, Resume                    string
	Manifest, TraceOut, MetricsOut, Pprof string
}

// AddFlags registers the run flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.Int64Var(&f.Seed, "seed", 1, "root seed; every trial's stream derives from it, so results are reproducible for any -workers")
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines (0 = all CPUs; results are identical for any value)")
	fs.DurationVar(&f.Budget, "budget", 0, "wall-clock budget; on expiry in-flight chunks drain and partial estimates print with a resume hint (0 = none)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "persist chunk-granularity progress to this JSON state file as trials complete")
	fs.StringVar(&f.Resume, "resume", "", "resume from this state file (and keep updating it); the estimates are bit-identical to an uninterrupted run")
	fs.IntVar(&f.Keep, "keep", 3, "checkpoint generations to retain (state.json, state.json.g1, ...); loads fall back to the newest valid one")
	fs.IntVar(&f.Quarantine, "quarantine", 0, "panicking or stalled trials tolerated per estimate (recorded with repro seeds, excluded from it) before aborting")
	fs.DurationVar(&f.TrialTimeout, "trial-timeout", 0, "per-trial watchdog: quarantine a trial that runs longer than this wall-clock budget (0 = off)")
	fs.DurationVar(&f.Progress, "progress", 0, "print a live progress line to stderr at this interval (0 = off)")
	fs.StringVar(&f.Manifest, "manifest", "", "record a JSONL run manifest (events + final summary) to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "record a JSONL trace (one span per sweep chunk under a root job span) to this file; analyze with simtrace")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the final metrics registry snapshot as JSON to this file")
	fs.StringVar(&f.Pprof, "pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address for the duration of the run")
	return f
}

func (f *Flags) validate() error {
	switch {
	case f.Workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", f.Workers)
	case f.Budget < 0:
		return fmt.Errorf("-budget must be >= 0, got %v", f.Budget)
	case f.Keep < 1:
		return fmt.Errorf("-keep must be >= 1, got %d", f.Keep)
	case f.Quarantine < 0:
		return fmt.Errorf("-quarantine must be >= 0, got %d", f.Quarantine)
	case f.TrialTimeout < 0:
		return fmt.Errorf("-trial-timeout must be >= 0, got %v", f.TrialTimeout)
	case f.Progress < 0:
		return fmt.Errorf("-progress must be >= 0, got %v", f.Progress)
	}
	return nil
}

// UsageError prints fs's usage text and returns the formatted error.
func UsageError(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM, for a graceful drain. The handler is released at that moment,
// so a second signal kills the process the default way.
func SignalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// Run is one sampling run, opened by Start and ended by Close.
type Run struct {
	// Ctx is cancelled by a signal or an expired -budget; its cause says
	// which.
	Ctx context.Context

	tool   string
	flags  *Flags
	ins    *obs.Instrumentation
	tracer *span.Tracer
	root   *span.Span
	cancel func()
	store  *sim.ArtifactStore
	ckPath string            // the state file; "" without -checkpoint or -resume
	cs     sim.CheckpointSet // the state file's stages; nil without one
}

// Start validates the run flags, opens the obs sinks and the -trace-out
// root span, installs the signal and -budget context and loads -resume.
// fs must be parsed and named after the command: the manifest records
// every flag of fs at its effective value. totalTrials is the run's
// trial budget, for the ETA. The root span carries the tool, then attrs,
// then the seed. A bad run flag or an unopenable sink is a usage error.
func Start(ctx context.Context, fs *flag.FlagSet, f *Flags, totalTrials int, attrs ...span.Attr) (*Run, error) {
	if err := f.validate(); err != nil {
		return nil, UsageError(fs, "%v", err)
	}
	tool := fs.Name()
	options := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { options[fl.Name] = fl.Value.String() })
	ins, err := obs.Setup(obs.Config{
		Tool: tool, Seed: f.Seed, Options: options, Resume: f.Resume, TotalTrials: totalTrials,
		Progress: f.Progress, MetricsOut: f.MetricsOut, Manifest: f.Manifest, Pprof: f.Pprof,
	})
	if err != nil {
		return nil, UsageError(fs, "%v", err)
	}
	r := &Run{tool: tool, flags: f, ins: ins, cancel: func() {}, store: &sim.ArtifactStore{Keep: f.Keep}}
	if f.TraceOut != "" {
		if r.tracer, err = span.Open(f.TraceOut, span.Options{Service: tool}); err != nil {
			return nil, r.Close(err)
		}
	}
	attrs = append(append([]span.Attr{span.Str("tool", tool)}, attrs...), span.Int64("seed", f.Seed))
	r.root = r.tracer.Start("job", span.SpanContext{}, attrs...)

	ctx, stop := SignalContext(ctx)
	r.Ctx, r.cancel = ctx, stop
	if f.Budget > 0 {
		ctx, cancel := context.WithTimeoutCause(ctx, f.Budget, fmt.Errorf("wall-clock budget %v expired", f.Budget))
		r.Ctx, r.cancel = ctx, func() { cancel(); stop() }
	}

	// The state file maps a stage label to its resume token; -resume
	// without -checkpoint keeps updating the same file. All state-file
	// I/O goes through the durable artifact store: checksummed envelopes,
	// -keep generations, fallback to the newest valid one, retried
	// transient write faults.
	if sm := ins.Metrics(); sm != nil {
		r.store.Metrics = sm
	}
	r.ckPath = f.Checkpoint
	if r.ckPath == "" {
		r.ckPath = f.Resume
	}
	if f.Resume != "" {
		cs, info, err := r.store.Load(f.Resume)
		if err != nil {
			return nil, r.Close(err)
		}
		if len(info.Corrupt) > 0 {
			fmt.Fprintf(os.Stderr, "%s: corrupt checkpoint generation(s) skipped: %s\n", tool, strings.Join(info.Corrupt, ", "))
		}
		if info.Generation > 0 {
			fmt.Fprintf(os.Stderr, "%s: resuming from backup generation %d (%s)\n", tool, info.Generation, info.Path)
		}
		r.cs = cs
	} else if r.ckPath != "" {
		r.cs = sim.CheckpointSet{}
	}
	return r, nil
}

// Stage opens the manifest phase of one estimate and returns the
// estimate's engine options: the run flags, the metrics hook, chunk spans
// stamped with the stage, and the stage's resume token and checkpoint
// sink under its label in the state file.
func (r *Run) Stage(label string) sim.ParallelOptions {
	r.ins.PhaseStart(label)
	f := r.flags
	popts := sim.ParallelOptions{Workers: f.Workers, Seed: f.Seed, MaxPanics: f.Quarantine,
		TrialTimeout: f.TrialTimeout}
	if sm := r.ins.Metrics(); sm != nil {
		popts.Metrics = sm
	}
	// The nil-tracer gate must stay explicit: assigning a typed-nil
	// *ChunkSpanner to the SpanHooks interface would defeat the engine's
	// nil check.
	if r.tracer != nil {
		popts.SpanHooks = span.ChunkSpans(r.tracer, r.root.Context(), span.Str("stage", label))
		popts.PprofLabels = []string{"fabric_job", fmt.Sprintf("%s-s%d", r.tool, f.Seed), "stage", label}
	}
	if r.cs != nil {
		popts.Resume = r.cs[label]
		popts.CheckpointSink = func(cp *sim.Checkpoint) error {
			r.cs[label] = cp
			return r.store.Save(r.ckPath, r.cs)
		}
	}
	return popts
}

// Done closes the stage's manifest phase and lists its quarantined
// trials on stderr.
func (r *Run) Done(label, estimate string, rep sim.RunReport, err error) {
	r.ins.PhaseDone(label, estimate, rep.String(), err)
	ReportQuarantine(os.Stderr, r.tool, label, r.flags.Seed, rep)
}

// Interrupted ends a run whose stage stopped early: it prints how to
// resume on stdout and returns the error naming the stage, the trials
// done and the cause.
func (r *Run) Interrupted(stage string, rep sim.RunReport) error {
	if r.ckPath != "" {
		fmt.Printf("resume bit-identically with: %s -resume %s (plus the original flags)\n", r.tool, r.ckPath)
	} else {
		fmt.Println("(run with -checkpoint FILE to make interrupted progress resumable)")
	}
	return fmt.Errorf("interrupted during %s after %d/%d trials: %w",
		stage, rep.Completed, rep.Total, context.Cause(r.Ctx))
}

// Close releases the signal handler and the budget, ends the root span
// with the run's outcome, then closes the trace and the obs sinks. It
// returns runErr when set, else the first sink error.
func (r *Run) Close(runErr error) error {
	r.cancel()
	outcome := "complete"
	if runErr != nil {
		outcome = "error"
	}
	r.root.End(span.Str("outcome", outcome))
	if err := r.tracer.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if err := r.ins.Close(runErr); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// ReportQuarantine lists the trials rep quarantined, panicked or
// stalled, each with the sim.ReproTrial call that replays it under the
// root seed. The quarantine keeps a crashing or stuck trial from killing
// the run; this keeps every one visible and replayable.
func ReportQuarantine(w io.Writer, tool, stage string, seed int64, rep sim.RunReport) {
	if rep.Quarantined == 0 {
		return
	}
	fmt.Fprintf(w, "%s: %s: %d trials quarantined (%d panicked, %d stalled; excluded from the estimate):\n",
		tool, stage, rep.Quarantined, rep.Quarantined-rep.Stalled, rep.Stalled)
	for _, pr := range rep.Panics {
		verb := "panicked"
		if pr.Kind == sim.RecordStalled {
			verb = "stalled"
		}
		fmt.Fprintf(w, "  trial %d %s: %s — replay: sim.ReproTrial(..., %d, %d)\n", pr.Trial, verb, pr.Value, seed, pr.Trial)
	}
}
