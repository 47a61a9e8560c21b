// The paper's flagship case study end to end: the Lehmann–Rabin
// randomized Dining Philosophers algorithm.
//
// The example (1) checks the five arrow statements of Section 6.2 exactly
// against every digitized Unit-Time adversary at n = 3, (2) rebuilds the
// machine-checked derivation of T --13,1/8--> C, (3) derives the
// expected-time bound of 63 from the retry recurrence and compares it to
// the measured worst case, and (4) cross-validates with dense-time Monte
// Carlo at a ring size far beyond exact reach (n = 12), sharding the
// trials across all CPUs with the parallel engine.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/dining"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diningphilosophers: ")

	// ----- exact worst case at n = 3 -----
	a, err := dining.NewAnalysisOpts(3, 1, dining.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact analysis: n=3, %d product states\n\n", a.Index.Len())

	results, err := a.CheckPaperChain()
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%-17s %s\n", dining.PaperStatementOrigins()[i], r)
	}

	proof, err := a.BuildPaperProof()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nderivation:")
	fmt.Print(proof.Render())

	loop := a.RetryLoop()
	eLoop, err := loop.ExpectedTime()
	if err != nil {
		log.Fatal(err)
	}
	bound, err := a.ExpectedTimeBound()
	if err != nil {
		log.Fatal(err)
	}
	worst, worstState, err := a.WorstExpectedTime()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpected time: recurrence E[loop] = %v, bound T→C = %v; measured worst case %.4f at %v\n",
		eLoop, bound, worst, worstState)

	// ----- Monte Carlo at n = 12 -----
	// SIGINT drains in-flight work and reports how far the sweep got
	// instead of discarding it; a second SIGINT kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)

	const (
		n      = 12
		trials = 1000
	)
	model := dining.MustNew(n)
	opts := sim.Options[dining.State]{Start: dining.AllAt(n, dining.F), SetStart: true}
	popts := sim.ParallelOptions{Seed: 7} // all CPUs; same output for any worker count

	mk := func() sim.Policy[dining.State] { return dining.Spiteful() }
	within13, rep13, err := sim.EstimateReachProbParallel[dining.State](ctx, model, mk, dining.InC, 13, trials, opts, popts)
	if err != nil {
		log.Fatalf("%v (%s)", err, rep13)
	}
	timeToC, repT, err := sim.EstimateTimeToTargetParallel[dining.State](ctx, model, mk, dining.InC, trials, opts, popts)
	if err != nil {
		log.Fatalf("%v (%s)", err, repT)
	}
	fmt.Printf("\nMonte Carlo, n=%d, spiteful scheduler, %d runs:\n", n, trials)
	fmt.Printf("  P[some process in C within 13] = %s   (paper guarantees ≥ 0.125)\n", within13.String())
	fmt.Printf("  time to first C                = %s   (paper bounds E by 63)\n", timeToC.String())
}
