// Command lrcheck is the exact worst-case checker for the Lehmann–Rabin
// reproduction: it enumerates the digitized Unit-Time scheduler product
// for a given ring size and speed bound, verifies each of the paper's five
// arrow statements by exact rational value iteration, rebuilds the
// Section 6.2 derivation of T --13,1/8--> C, checks the composed statement
// directly, and reports the expected-time bounds (recurrence vs measured)
// and the qualitative Zuck–Pnueli baseline.
//
// Usage:
//
//	lrcheck [-n ring] [-k steps-per-window] [-skip-expected]
//	        [-workers N] [-mem-budget bytes]
//
// The product is generated on the fly into compressed-sparse-row form by
// -workers goroutines, and the five arrows are checked up to -workers at
// a time, each solve on one goroutine (any worker count produces
// identical output); -mem-budget caps the resident transition structure
// for large rings.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/mdp"
	"repro/internal/report"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrcheck", flag.ContinueOnError)
	n := fs.Int("n", 3, "ring size (2..16; exact checking is practical up to ~5)")
	k := fs.Int("k", 1, "steps per process per unit-time window (digitization speed bound, 1..15)")
	skipExpected := fs.Bool("skip-expected", false, "skip the expected-time value iteration")
	curve := fs.Int("curve", 0, "also print the worst-case probability curve up to this horizon")
	witness := fs.Bool("witness", false, "print a most-damning adversary schedule for the composed claim")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of text")
	lemmas := fs.Bool("lemmas", false, "also check every appendix lemma (A.4–A.13) at every pivot")
	exportPrefix := fs.String("export-prefix", "", "write the product MDP as PRISM explicit files <prefix>.tra and <prefix>.lab")
	workers := fs.Int("workers", 0, "exploration goroutines and statements checked at once (0 = all cores; any value gives identical results)")
	memBudget := fs.Int64("mem-budget", 0, "abort enumeration beyond this many bytes of transition structure (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *n < 2 || *n > sched.MaxProcs:
		return cli.UsageError(fs, "-n must be in 2..%d, got %d", sched.MaxProcs, *n)
	case *k < 1 || *k > sched.MaxStepsPerWindow:
		return cli.UsageError(fs, "-k must be in 1..%d, got %d", sched.MaxStepsPerWindow, *k)
	case *workers < 0:
		return cli.UsageError(fs, "-workers must be >= 0, got %d", *workers)
	case *memBudget < 0:
		return cli.UsageError(fs, "-mem-budget must be >= 0, got %d", *memBudget)
	case *curve < 0 || *curve > mdp.MaxHorizon:
		return cli.UsageError(fs, "-curve must be in 0..%d, got %d", mdp.MaxHorizon, *curve)
	case *jsonOut && (*witness || *lemmas):
		return cli.UsageError(fs, "-json has no field for -witness or -lemmas")
	}
	opts := dining.Opts{Workers: *workers, MemBudget: *memBudget}

	if *jsonOut {
		return runJSON(*n, *k, *curve, *skipExpected, *exportPrefix, opts)
	}

	fmt.Printf("Lehmann–Rabin worst-case check: n=%d, digitized Unit-Time with k=%d\n", *n, *k)
	a, err := dining.NewAnalysisOpts(*n, *k, opts)
	if err != nil {
		return err
	}
	fmt.Printf("enumerated product: %d states\n\n", a.Index.Len())

	fmt.Println("Paper arrows (Section 6.2 / Appendix A), worst case over all digitized adversaries:")
	results, err := a.CheckPaperChain()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "origin\tstatement\tclaimed p\tmeasured worst p\tverdict")
	origins := dining.PaperStatementOrigins()
	allHold := true
	for i, r := range results {
		verdict := "HOLDS"
		if !r.Holds {
			verdict = "FAILS"
			allHold = false
		}
		fmt.Fprintf(tw, "%s\t%s --%v--> %s\t%v\t%v\t%s\n",
			origins[i], r.Stmt.From.Name, r.Stmt.Time, r.Stmt.To.Name,
			r.Stmt.Prob, r.WorstProb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Println("\nComposed derivation (Prop 3.2 + Thm 3.4):")
	proof, err := a.BuildPaperProof()
	if err != nil {
		return err
	}
	fmt.Print(proof.Render())

	check := core.CheckStatement[dining.PState]
	if *witness { // the witness walks the direct check's strategy
		check = core.CheckStrategy[dining.PState]
	}
	direct, err := check(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		return err
	}
	fmt.Printf("\nDirect model check of the composed claim:\n  %s\n", direct)
	fmt.Printf("  composition is sound but lossy: derived bound %v vs direct worst case %v\n",
		proof.Stmt.Prob, direct.WorstProb)

	loopBound, err := a.RetryLoop().ExpectedTime()
	if err != nil {
		return err
	}
	totalBound, err := a.ExpectedTimeBound()
	if err != nil {
		return err
	}
	fmt.Printf("\nExpected time (Section 6.2 recurrence): E[RT loop] = %v, total T→C bound = %v\n",
		loopBound, totalBound)

	if !*skipExpected {
		worst, state, err := a.WorstExpectedTime()
		if err != nil {
			return err
		}
		best, err := a.BestExpectedTime()
		if err != nil {
			return err
		}
		fmt.Printf("Measured worst expected time to C: %.4f (at %v) — paper bound %v\n",
			worst, state, totalBound)
		fmt.Printf("Cooperative-scheduler counterpart (min over adversaries, worst T state): %.4f\n", best)
	}

	if *curve > 0 {
		points, err := a.ProgressCurve(*curve)
		if err != nil {
			return err
		}
		fmt.Printf("\nWorst-case P[T reaches C within t] by horizon (exact):\n")
		fmt.Print(core.RenderCurve(points, direct.Stmt.Prob))
		if t, ok := core.TightestTime(points, direct.Stmt.Prob); ok {
			fmt.Printf("tightest horizon for p = %v: t = %d (paper uses t = 13)\n", direct.Stmt.Prob, t)
		}
	}

	if *witness {
		lines, err := a.WorstWitness(direct)
		if err != nil {
			return err
		}
		fmt.Printf("\nMost-damning schedule for T --13,1/8--> C:\n")
		for _, line := range lines {
			fmt.Println("  " + line)
		}
	}

	if *exportPrefix != "" {
		if err := exportPRISM(a, *exportPrefix, opts); err != nil {
			return err
		}
		fmt.Printf("\nwrote PRISM explicit files %s.tra and %s.lab (labels: trying, critical)\n",
			*exportPrefix, *exportPrefix)
	}

	if *lemmas {
		fmt.Println("\nAppendix lemmas (rigged-model conditioning for first(flip, d) hypotheses):")
		results, err := dining.CheckAppendix(*n, *k, nil)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println("  " + r.String())
			if !r.Holds && !r.Vacuous {
				allHold = false
			}
		}
	}

	total, almostSure := a.QualitativeProgress()
	fmt.Printf("\nZuck–Pnueli baseline (qualitative): %d/%d T-states reach C with probability 1 under every adversary\n",
		almostSure, total)
	fmt.Println("  (the baseline gives no time bound; the paper's method replaces it with (13, 1/8))")

	if !allHold {
		return fmt.Errorf("some paper statements fail in the digitized model")
	}
	return nil
}

// exportPRISM writes the full product (Analysis.Unreduced, not the
// quotient the checks ran on) in PRISM explicit-state format so external
// model checkers can re-verify every number.
func exportPRISM(a *dining.Analysis, prefix string, opts dining.Opts) error {
	full, err := a.Unreduced(opts)
	if err != nil {
		return err
	}
	tra, err := os.Create(prefix + ".tra")
	if err != nil {
		return err
	}
	defer tra.Close()
	if err := full.MDP.ExportTra(tra); err != nil {
		return err
	}

	lab, err := os.Create(prefix + ".lab")
	if err != nil {
		return err
	}
	defer lab.Close()
	states := full.Index.States()
	init := make([]bool, len(states))
	if len(init) > 0 {
		init[0] = true
	}
	return full.MDP.ExportLab(lab, init, map[string][]bool{
		"trying":   full.Set("T").Mask(states),
		"critical": full.Set("C").Mask(states),
	})
}

// runJSON emits the machine-readable report consumed by downstream
// tooling (and recorded in EXPERIMENTS.md), and the PRISM export if any.
func runJSON(n, k, curve int, skipExpected bool, exportPrefix string, opts dining.Opts) error {
	a, err := dining.NewAnalysisOpts(n, k, opts)
	if err != nil {
		return err
	}
	if exportPrefix != "" {
		if err := exportPRISM(a, exportPrefix, opts); err != nil {
			return err
		}
	}
	doc := report.Document{
		Model:         "lehmann-rabin",
		Procs:         n,
		StepsPerTick:  k,
		ProductStates: a.Index.Len(),
		Schema:        a.Schema.Name,
	}

	results, err := a.CheckPaperChain()
	if err != nil {
		return err
	}
	origins := dining.PaperStatementOrigins()
	for i, r := range results {
		doc.Arrows = append(doc.Arrows, report.ArrowFrom(origins[i], r))
	}

	direct, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
	if err != nil {
		return err
	}
	composed := report.ArrowFrom("Section 6.2 (composed)", direct)
	doc.Composed = &composed

	bound, err := a.ExpectedTimeBound()
	if err != nil {
		return err
	}
	loop, err := a.RetryLoop().ExpectedTime()
	if err != nil {
		return err
	}
	expected := report.ExpectedTime{
		RecurrenceLoop: loop.String(),
		DerivedBound:   bound.String(),
	}
	if !skipExpected {
		worst, state, err := a.WorstExpectedTime()
		if err != nil {
			return err
		}
		expected.MeasuredWorst = worst
		expected.MeasuredAtState = fmt.Sprintf("%v", state)
	}
	doc.Expected = &expected

	if curve > 0 {
		points, err := a.ProgressCurve(curve)
		if err != nil {
			return err
		}
		doc.Curve = report.CurveFrom(points)
	}
	return doc.Write(os.Stdout)
}
