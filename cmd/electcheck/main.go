// Command electcheck runs the second case study: randomized leader
// election by coin flipping, analyzed with the same proof method as the
// Lehmann–Rabin algorithm — per-level arrow statements, Proposition 3.2
// weakening, Theorem 3.4 composition, and an expected-time bound from
// per-level retry loops, each validated against the exact worst case of
// the digitized Unit-Time product. The product is generated on the fly
// into compressed-sparse-row form by -workers goroutines, and the level
// statements are checked up to -workers at a time, so products of
// millions of states stay exact; -mem-budget caps the resident
// transition structure.
//
// With -sample, the exact analysis is cross-validated by dense-time Monte
// Carlo: the requested number of election runs is sharded across a worker
// pool (-workers) by the parallel engine in internal/sim, and the sampled
// expected election time is compared against the derived bound. For a
// fixed -seed the sampled estimate is bit-identical for any worker count.
//
// The run flags from -seed on come from the run harness (internal/cli),
// as in lrsim: an interrupted sample prints its partial estimate and
// resumes bit-identically from the state file's "sample" entry.
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
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/election"
	"repro/internal/obs/span"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "electcheck:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("electcheck", flag.ContinueOnError)
	n := fs.Int("n", 4, "number of processes (2..16)")
	k := fs.Int("k", 1, "steps per process per unit-time window (1..15)")
	sample := fs.Int("sample", 0, "also run this many dense-time Monte Carlo election trials (0 = off)")
	memBudget := fs.Int64("mem-budget", 0, "abort exact enumeration beyond this many bytes of transition structure (0 = unlimited)")
	rf := cli.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *n < 2 || *n > sched.MaxProcs:
		return cli.UsageError(fs, "-n must be in 2..%d, got %d", sched.MaxProcs, *n)
	case *k < 1 || *k > sched.MaxStepsPerWindow:
		return cli.UsageError(fs, "-k must be in 1..%d, got %d", sched.MaxStepsPerWindow, *k)
	case *sample < 0:
		return cli.UsageError(fs, "-sample must be >= 0, got %d", *sample)
	case *memBudget < 0:
		return cli.UsageError(fs, "-mem-budget must be >= 0, got %d", *memBudget)
	}
	r, err := cli.Start(ctx, fs, rf, *sample, span.Int("n", *n), span.Int("k", *k), span.Int("sample", *sample))
	if err != nil {
		return err
	}
	return r.Close(analysis(r, *n, *k, *sample, rf.Workers, *memBudget))
}

func analysis(r *cli.Run, n, k, sample, workers int, memBudget int64) error {
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
	for _, res := range results {
		verdict := "HOLDS"
		if !res.Holds {
			verdict = "FAILS"
			allHold = false
		}
		fmt.Fprintf(tw, "%s --%v--> %s\t%v\t%v\t%s\n",
			res.Stmt.From.Name, res.Stmt.Time, res.Stmt.To.Name, res.Stmt.Prob, res.WorstProb, verdict)
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
		const label = "sample"
		sum, rep, err := sim.EstimateTimeToTargetParallel[election.State](r.Ctx, model,
			func() sim.Policy[election.State] { return sim.Slowest[election.State]() },
			election.State.HasLeader, sample,
			sim.Options[election.State]{}, r.Stage(label))
		r.Done(label, sum.String(), rep, err)
		if errors.Is(err, sim.ErrInterrupted) {
			fmt.Printf("\nMonte Carlo cross-check interrupted: %s\n", rep)
			if rep.Completed > 0 {
				fmt.Printf("partial time to leader: %s (no bound verdict from a partial sample)\n", sum.String())
			}
			return r.Interrupted(label, rep)
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
