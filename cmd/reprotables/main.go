// Command reprotables regenerates the Markdown tables of EXPERIMENTS.md
// from scratch: the per-arrow worst cases across (n, k) configurations,
// the direct-vs-composed comparison, the expected-time rows, the progress
// curve, and the election levels. Paste the output into EXPERIMENTS.md
// after any change to the models or the checker.
//
// Usage:
//
//	reprotables [-configs 3x1,3x2] [-curve 16] [-election 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/election"
	"repro/internal/mdp"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reprotables:", err)
		os.Exit(1)
	}
}

type config struct {
	n, k int
}

func run(args []string) error {
	fs := flag.NewFlagSet("reprotables", flag.ContinueOnError)
	configsFlag := fs.String("configs", "3x1,3x2", "comma-separated NxK Lehmann–Rabin configurations")
	curveHorizon := fs.Int("curve", 16, "progress-curve horizon (0 to skip)")
	electionN := fs.Int("election", 4, "election size (0 to skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *curveHorizon < 0 || *curveHorizon > mdp.MaxHorizon:
		return cli.UsageError(fs, "-curve must be in 0..%d, got %d", mdp.MaxHorizon, *curveHorizon)
	case *electionN < 0 || *electionN == 1 || *electionN > sched.MaxProcs:
		return cli.UsageError(fs, "-election must be 0 or in 2..%d, got %d", sched.MaxProcs, *electionN)
	}

	configs, err := parseConfigs(*configsFlag)
	if err != nil {
		return cli.UsageError(fs, "-configs: %v", err)
	}

	analyses := make([]*dining.Analysis, len(configs))
	for i, cfg := range configs {
		a, err := dining.NewAnalysisOpts(cfg.n, cfg.k, dining.Opts{})
		if err != nil {
			return err
		}
		analyses[i] = a
	}

	if err := arrowTable(configs, analyses); err != nil {
		return err
	}
	if err := composedTable(configs, analyses); err != nil {
		return err
	}
	if err := expectedTable(configs, analyses); err != nil {
		return err
	}
	if *curveHorizon > 0 {
		if err := curveTable(analyses[0], *curveHorizon); err != nil {
			return err
		}
	}
	if *electionN > 0 {
		if err := electionTable(*electionN); err != nil {
			return err
		}
	}
	return nil
}

// parseConfigs reads a comma-separated list of NxK configurations and
// refuses any whose size or speed bound a product cannot have, so a bad
// entry fails before the entries ahead of it are explored.
func parseConfigs(s string) ([]config, error) {
	var out []config
	for _, part := range strings.Split(s, ",") {
		nk := strings.SplitN(strings.TrimSpace(part), "x", 2)
		if len(nk) != 2 {
			return nil, fmt.Errorf("config %q is not NxK", part)
		}
		n, err := strconv.Atoi(nk[0])
		if err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(nk[1])
		if err != nil {
			return nil, err
		}
		switch {
		case n < 2 || n > sched.MaxProcs:
			return nil, fmt.Errorf("config %q: n must be in 2..%d", part, sched.MaxProcs)
		case k < 1 || k > sched.MaxStepsPerWindow:
			return nil, fmt.Errorf("config %q: k must be in 1..%d", part, sched.MaxStepsPerWindow)
		}
		out = append(out, config{n: n, k: k})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no configurations")
	}
	return out, nil
}

func arrowTable(configs []config, analyses []*dining.Analysis) error {
	fmt.Println("### Paper arrows: measured worst case per configuration")
	fmt.Println()
	header := "| Arrow (paper) | Claimed p |"
	sep := "|---|---|"
	for _, cfg := range configs {
		header += fmt.Sprintf(" n=%d,k=%d |", cfg.n, cfg.k)
		sep += "---|"
	}
	fmt.Println(header)
	fmt.Println(sep)

	origins := dining.PaperStatementOrigins()
	columns := make([][]core.CheckResult[dining.PState], len(analyses))
	for i, a := range analyses {
		results, err := a.CheckPaperChain()
		if err != nil {
			return err
		}
		columns[i] = results
	}
	for row := range origins {
		st := columns[0][row].Stmt
		line := fmt.Sprintf("| `%s --%v--> %s` (%s) | %v |",
			st.From.Name, st.Time, st.To.Name, origins[row], st.Prob)
		for i := range analyses {
			line += fmt.Sprintf(" %v |", columns[i][row].WorstProb)
		}
		fmt.Println(line)
	}
	fmt.Println()
	return nil
}

func composedTable(configs []config, analyses []*dining.Analysis) error {
	fmt.Println("### Composed claim: direct worst case vs derived bound")
	fmt.Println()
	fmt.Println("| Config | direct worst-case P | composed bound |")
	fmt.Println("|---|---|---|")
	for i, a := range analyses {
		direct, err := core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
		if err != nil {
			return err
		}
		fmt.Printf("| n=%d, k=%d | %v | %v |\n", configs[i].n, configs[i].k, direct.WorstProb, direct.Stmt.Prob)
	}
	fmt.Println()
	return nil
}

func expectedTable(configs []config, analyses []*dining.Analysis) error {
	fmt.Println("### Expected time: measured worst case vs paper bound")
	fmt.Println()
	fmt.Println("| Config | measured worst E[time to C] | best-case counterpart | paper bound |")
	fmt.Println("|---|---|---|---|")
	for i, a := range analyses {
		worst, _, err := a.WorstExpectedTime()
		if err != nil {
			return err
		}
		best, err := a.BestExpectedTime()
		if err != nil {
			return err
		}
		bound, err := a.ExpectedTimeBound()
		if err != nil {
			return err
		}
		fmt.Printf("| n=%d, k=%d | %.4f | %.4f | %v |\n", configs[i].n, configs[i].k, worst, best, bound)
	}
	fmt.Println()
	return nil
}

func curveTable(a *dining.Analysis, horizon int) error {
	points, err := a.ProgressCurve(horizon)
	if err != nil {
		return err
	}
	fmt.Printf("### Progress curve at n=%d, k=%d\n\n", a.N, a.K)
	var head, sep, row strings.Builder
	head.WriteString("| t |")
	sep.WriteString("|---|")
	row.WriteString("| P |")
	for _, pt := range points {
		fmt.Fprintf(&head, " %d |", pt.Horizon)
		sep.WriteString("---|")
		fmt.Fprintf(&row, " %v |", pt.WorstProb)
	}
	fmt.Println(head.String())
	fmt.Println(sep.String())
	fmt.Println(row.String())
	fmt.Println()
	return nil
}

func electionTable(n int) error {
	a, err := election.NewAnalysisOpts(n, 1, election.Opts{})
	if err != nil {
		return err
	}
	results, err := a.CheckLevels()
	if err != nil {
		return err
	}
	fmt.Printf("### Election levels at n=%d, k=1\n\n", n)
	fmt.Println("| Level statement | claimed p | measured worst p |")
	fmt.Println("|---|---|---|")
	for _, r := range results {
		fmt.Printf("| `%s --%v--> %s` | %v | %v |\n",
			r.Stmt.From.Name, r.Stmt.Time, r.Stmt.To.Name, r.Stmt.Prob, r.WorstProb)
	}
	fmt.Println()
	return nil
}
