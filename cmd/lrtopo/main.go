// Command lrtopo explores the topology generalization of Section 7 of the
// paper ("topologies that are more general than rings"): it runs the
// unmodified Lehmann–Rabin process code on a ring and on an open path of
// the same size and compares, exactly and against every digitized
// Unit-Time adversary, the worst-case progress curves and expected times.
//
// Usage:
//
//	lrtopo [-n procs] [-k steps-per-window] [-horizon 13]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/mdp"
	"repro/internal/prob"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrtopo:", err)
		os.Exit(1)
	}
}

// study is one topology's exact answers.
type study struct {
	name   string
	states int
	curve  []core.CurvePoint
	worst  float64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrtopo", flag.ContinueOnError)
	n := fs.Int("n", 3, "number of processes")
	k := fs.Int("k", 1, "steps per process per unit-time window")
	horizon := fs.Int("horizon", 13, "curve horizon")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *n < 2 || *n > sched.MaxProcs:
		return cli.UsageError(fs, "-n must be in 2..%d, got %d", sched.MaxProcs, *n)
	case *k < 1 || *k > sched.MaxStepsPerWindow:
		return cli.UsageError(fs, "-k must be in 1..%d, got %d", sched.MaxStepsPerWindow, *k)
	case *horizon < 0 || *horizon > mdp.MaxHorizon:
		return cli.UsageError(fs, "-horizon must be in 0..%d, got %d", mdp.MaxHorizon, *horizon)
	}

	var studies []study
	for _, topo := range []dining.Topology{dining.Ring(*n), dining.Path(*n)} {
		st, err := explore(topo, *k, *horizon)
		if err != nil {
			return err
		}
		studies = append(studies, st)
		fmt.Fprintf(out, "%s: %d product states\n", st.name, st.states)
	}

	fmt.Fprintf(out, "\nWorst-case P[T reaches C within t], exact, every digitized adversary (k=%d):\n", *k)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "t\t%s\t%s\n", studies[0].name, studies[1].name)
	for h := 0; h <= *horizon; h++ {
		fmt.Fprintf(tw, "%d\t%v\t%v\n", h, studies[0].curve[h].WorstProb, studies[1].curve[h].WorstProb)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	p := prob.NewRat(1, 8)
	for _, st := range studies {
		if tight, ok := core.TightestTime(st.curve, p); ok {
			fmt.Fprintf(out, "\n%s: tightest horizon for p=1/8 is t=%d; worst expected time to C = %.4f",
				st.name, tight, st.worst)
		}
	}
	fmt.Fprintln(out)
	return nil
}

// explore enumerates the topology's product under the k-steps-per-window
// digitization and solves T → C on it: the worst-case curve up to horizon
// and the worst-case expected time.
func explore(topo dining.Topology, k, horizon int) (study, error) {
	model, err := dining.NewGeneral(topo)
	if err != nil {
		return study{}, err
	}
	auto, err := sched.Product[dining.State](model, sched.Config{StepsPerWindow: k})
	if err != nil {
		return study{}, err
	}
	m, ix, err := mdp.Explore(auto, mdp.ExploreOptions{})
	if err != nil {
		return study{}, fmt.Errorf("enumerating %s product: %w", topo.Name, err)
	}
	inT := core.NewSet("T", sched.LiftPred(dining.InT))
	inC := core.NewSet("C", sched.LiftPred(dining.InC))
	curve, err := core.WorstCaseCurve(m, ix, inT, inC, horizon)
	if err != nil {
		return study{}, err
	}
	worst, _, err := core.WorstExpectedTime(ix, inT, inC, m.MaxExpectedTicks)
	if err != nil {
		return study{}, err
	}
	return study{name: topo.Name, states: ix.Len(), curve: curve, worst: worst}, nil
}
