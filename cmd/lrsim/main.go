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
// The run flags from -seed on come from the run harness (internal/cli):
// an interrupted run prints its partial estimates and resumes
// bit-identically, and each estimate is one manifest phase, trace stage
// and state-file entry, labelled n=<n>/<policy>/reach, .../time or
// n=<n>/<policy>/curve@<h>.
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
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/dining"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("lrsim", flag.ContinueOnError)
	sizes := fs.String("sizes", "3,5,8", "comma-separated ring sizes")
	policies := fs.String("policies", "slowest,random,spiteful", "comma-separated policies (slowest, random, spiteful, paced:<alpha>)")
	trials := fs.Int("trials", 2000, "Monte Carlo trials per configuration")
	within := fs.Float64("within", 13, "deadline for the probability estimate")
	curveMax := fs.Int("curve", 0, "also print the empirical reach-probability curve up to this deadline")
	rf := cli.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *trials <= 0:
		return cli.UsageError(fs, "-trials must be positive, got %d", *trials)
	case *within <= 0:
		return cli.UsageError(fs, "-within must be positive, got %g", *within)
	case *curveMax < 0:
		return cli.UsageError(fs, "-curve must be >= 0, got %d", *curveMax)
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return cli.UsageError(fs, "%v", err)
	}
	names := strings.Split(*policies, ",")

	stages := 2 * len(ns) * len(names)
	if *curveMax > 0 {
		stages++
	}
	r, err := cli.Start(ctx, fs, rf, *trials*stages,
		span.Str("sizes", *sizes), span.Str("policies", *policies), span.Int("trials", *trials))
	if err != nil {
		return err
	}
	return r.Close(experiments(r, ns, names, *trials, *within, *curveMax))
}

func experiments(r *cli.Run, ns []int, names []string, trials int, within float64, curveMax int) error {
	ctx := r.Ctx
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

	fmt.Printf("Lehmann–Rabin Monte Carlo: start = all processes trying (flip-ready), trials = %d\n", trials)
	fmt.Printf("paper claims: P[reach C within 13] >= 1/8 = 0.125 from any trying state; E[time to C] <= 63\n\n")

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\tpolicy\tP[C within %g] (95%% Wilson)\tE[time to C] (95%% CI)\n", within)

	// interrupted flushes the rows printed so far, then hands over to the
	// harness for the resume hint and the error.
	interrupted := func(stage string, rep sim.RunReport) error {
		tw.Flush()
		fmt.Printf("\ninterrupted during %s: %s\n", stage, rep)
		return r.Interrupted(stage, rep)
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
			opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
			stage := fmt.Sprintf("n=%d/%s", n, name)
			probEst, probRep, err := sim.EstimateReachProbParallel[dining.State](ctx, model, mk, dining.InC,
				within, trials, opts, r.Stage(stage+"/reach"))
			r.Done(stage+"/reach", probEst.String(), probRep, err)
			if errors.Is(err, sim.ErrInterrupted) {
				if probRep.Completed > 0 {
					fmt.Fprintf(tw, "%d\t%s\t%s [partial: %s]\t-\n", n, name, probEst.String(), probRep)
				}
				return interrupted(stage+"/reach", probRep)
			}
			if err != nil {
				return err
			}
			timeEst, timeRep, err := sim.EstimateTimeToTargetParallel[dining.State](ctx, model, mk, dining.InC,
				trials, opts, r.Stage(stage+"/time"))
			r.Done(stage+"/time", timeEst.String(), timeRep, err)
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

	if curveMax > 0 {
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
		deadlines := make([]float64, curveMax)
		for i := range deadlines {
			deadlines[i] = float64(i + 1)
		}
		stage := fmt.Sprintf("n=%d/%s/curve@%d", n, name, curveMax)
		curve, curveRep, err := sim.EstimateCurveParallel[dining.State](ctx, model, mk, dining.InC, deadlines, trials,
			sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true},
			r.Stage(stage))
		r.Done(stage, fmt.Sprintf("curve over %d deadlines", len(curve.Deadlines)), curveRep, err)
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
