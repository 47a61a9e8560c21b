// Command benchab is the benchmark gate: a paired A/B run of the working
// tree against a base revision on BENCHMARK.json's workloads, recorded
// in the BENCH_sim.json ledger.
//
//	benchab BASE [WORKLOAD...]   (make bench-ab BASE=<rev>: every workload)
//
// Run it from the repository root. It extracts BASE under
// .bench_build/base with git archive, and refuses to run when
// BENCHMARK.json or its "paths" differ between BASE and the working
// tree. Each workload runs BENCHMARK.json's command ten times in each
// tree, pair p with --seed p and --seconds run_seconds, the base first
// in odd pairs. Each end-to-end metric then reads one verdict:
//
//	regressed   the change's median is worse than the base's by more than
//	            the metric's bound, a share of the base's median
//	unresolved  the base's interquartile range is wider than that bound,
//	            unless every change run beats every base run
//	gain        the change wins at least 9 of 10 pairs (ties count for
//	            neither) and its median is better by more than the base's
//	            interquartile range
//	ok          none of these
//
// A run that exits non-zero, prints "correct": false or omits an
// end-to-end metric is a failure, and so is a change side that fails a
// larger share of its attempted jobs.
// benchab exits 1 on a regression or a failure; unresolved metrics are
// listed and recorded, and pass.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// pairs is the number of base/change pairs per workload; a gain needs
// gainWins of every ten.
const pairs, gainWins = 10, 9

func main() {
	failed, err := run(context.Background(), ".", os.Args[1:], command, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
	}
	if err != nil || failed {
		os.Exit(1)
	}
}

// execFunc runs argv in dir and returns its standard output. A run that
// exits non-zero returns an error; tests substitute a fake.
type execFunc func(ctx context.Context, dir string, argv ...string) ([]byte, error)

func command(ctx context.Context, dir string, argv ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s: %w", strings.Join(argv, " "), err)
	}
	return out, nil
}

// benchDecl is the part of BENCHMARK.json benchab reads.
type benchDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// machine is what a run's header line says about the host and build.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// runResult is one benchmark run: its header line and its last line.
type runResult struct {
	Header    *machine `json:"header"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// The ledger, written to BENCH_sim.json.
type ledger struct {
	Header    header     `json:"header"`
	Workloads []workload `json:"workloads"`
	Failures  []string   `json:"failures"`
}

type header struct {
	machine
	Base       string `json:"base"`
	BaseCommit string `json:"base_commit"`
	// Commit is the working tree's HEAD; Dirty reports changes on top.
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Pairs      int    `json:"pairs"`
	RunSeconds int    `json:"run_seconds"`
}

type workload struct {
	Name    string   `json:"name"`
	Base    jobs     `json:"base"`
	Change  jobs     `json:"change"`
	Metrics []metric `json:"metrics"`
}

type jobs struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

type metric struct {
	metricDecl
	Base    side   `json:"base"`
	Change  side   `json:"change"`
	Wins    int    `json:"wins"`
	Verdict string `json:"verdict"`
}

// side is one side's runs, in pair order, and their quartiles.
type side struct {
	Runs   []float64 `json:"runs"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// run measures BASE (args[0]) against the working tree at root on the
// workloads args names, or on all of them, and writes the ledger. It
// reports whether the gate failed.
func run(ctx context.Context, root string, args []string, x execFunc, stdout io.Writer) (bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var decl benchDecl
	if err := json.Unmarshal(data, &decl); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return false, errors.New("usage: benchab BASE [WORKLOAD...]")
	}
	var known []string
	for _, w := range decl.Workloads {
		known = append(known, w.Name)
	}
	names := args[1:]
	if len(names) == 0 {
		names = known
	}
	for _, n := range names {
		if !slices.Contains(known, n) {
			return false, fmt.Errorf("unknown workload %q (BENCHMARK.json has %s)", n, strings.Join(known, ", "))
		}
	}
	// Read-only queries; every refusal comes before anything is extracted.
	base, bench := args[0], append(slices.Clone(decl.Paths), "BENCHMARK.json")
	var ans [5]string
	for i, q := range [][]string{
		{"rev-parse", "--verify", base + "^{commit}"},
		{"rev-parse", "HEAD"},
		{"status", "--porcelain"},
		append([]string{"diff", "--name-only", base, "--"}, bench...),
		append([]string{"ls-files", "--others", "--exclude-standard", "--"}, bench...),
	} {
		out, err := x(ctx, root, append([]string{"git"}, q...)...)
		if err != nil {
			return false, err
		}
		ans[i] = strings.TrimSpace(string(out))
	}
	if diff := strings.Fields(ans[3] + "\n" + ans[4]); len(diff) > 0 {
		return false, fmt.Errorf("refusing to run: the benchmark differs between %s and the working tree (%s)",
			base, strings.Join(diff, ", "))
	}
	h := header{Base: base, BaseCommit: ans[0], Commit: ans[1], Dirty: ans[2] != "", Pairs: pairs, RunSeconds: decl.RunSeconds}

	// Paths relative to root, where git and tar run.
	baseDir := filepath.Join(".bench_build", "base")
	if err := os.RemoveAll(filepath.Join(root, baseDir)); err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Join(root, baseDir), 0o755); err != nil {
		return false, err
	}
	for _, argv := range [][]string{
		{"git", "archive", "--format=tar", "-o", baseDir + ".tar", h.BaseCommit},
		{"tar", "-xf", baseDir + ".tar", "-C", baseDir},
	} {
		if _, err := x(ctx, root, argv...); err != nil {
			return false, err
		}
	}

	l := ledger{Failures: []string{}}
	dirs, sides := [2]string{filepath.Join(root, baseDir), root}, [2]string{"base", "change"}
	for _, name := range names {
		w := workload{Name: name}
		js := [2]*jobs{&w.Base, &w.Change}
		var res [2][]runResult // per side, the pairs where both sides ran
		for p := 1; p <= pairs; p++ {
			var got [2]*runResult
			for i := range 2 {
				s := (i + p + 1) % 2 // odd pairs run the base first
				r, err := runOnce(ctx, x, dirs[s], decl.EndToEnd, append(slices.Clone(decl.Command), "--workload", name,
					"--seed", strconv.Itoa(p), "--seconds", strconv.Itoa(decl.RunSeconds), "--trace", "0"))
				js[s].Attempted += r.Attempted
				js[s].Failed += r.Failed
				if r.Header != nil && h.CPUModel == "" {
					h.machine = *r.Header
				}
				if err != nil {
					msg := fmt.Sprintf("%s pair %d %s: %v", name, p, sides[s], err)
					l.Failures = append(l.Failures, msg)
					fmt.Fprintln(stdout, "FAILED:", msg)
					continue
				}
				got[s] = &r
				fmt.Fprintf(stdout, "%s pair %d/%d %s:", name, p, pairs, sides[s])
				for _, m := range decl.EndToEnd {
					fmt.Fprintf(stdout, " %s=%.6g", m.Name, r.Metrics[m.Name].Value)
				}
				fmt.Fprintln(stdout)
			}
			if got[0] != nil && got[1] != nil {
				res[0], res[1] = append(res[0], *got[0]), append(res[1], *got[1])
			}
		}
		if failedShare(w.Change) > failedShare(w.Base) {
			l.Failures = append(l.Failures, fmt.Sprintf("%s: the change failed %d of %d jobs, the base %d of %d",
				name, w.Change.Failed, w.Change.Attempted, w.Base.Failed, w.Base.Attempted))
		}
		for _, m := range decl.EndToEnd {
			mr := metric{metricDecl: m}
			for s, sd := range []*side{&mr.Base, &mr.Change} {
				sd.Runs = []float64{}
				for _, r := range res[s] {
					sd.Runs = append(sd.Runs, r.Metrics[m.Name].Value)
				}
				sd.Q1, sd.Median, sd.Q3 = quartiles(sd.Runs)
			}
			mr.Wins, mr.Verdict = judge(m, mr.Base.Runs, mr.Change.Runs)
			w.Metrics = append(w.Metrics, mr)
		}
		l.Workloads = append(l.Workloads, w)
	}
	l.Header = h

	ledgerJSON, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(root, "BENCH_sim.json"), append(ledgerJSON, '\n'), 0o644); err != nil {
		return false, err
	}
	return report(stdout, l), nil
}

func failedShare(j jobs) float64 { return float64(j.Failed) / float64(max(j.Attempted, 1)) }

// runOnce runs the benchmark once in dir and reads its output: the
// header line first, the result on the last line. A run that exits
// non-zero, answers incorrectly or omits one of the metrics ms is an
// error.
func runOnce(ctx context.Context, x execFunc, dir string, ms []metricDecl, argv []string) (runResult, error) {
	out, err := x(ctx, dir, argv...)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r runResult
	if json.Unmarshal([]byte(lines[0]), &r) != nil || r.Header == nil {
		return runResult{}, errors.Join(err, fmt.Errorf("bad header line %q", lines[0]))
	}
	last := lines[len(lines)-1]
	if len(lines) < 2 || json.Unmarshal([]byte(last), &r) != nil || r.Metrics == nil {
		return r, errors.Join(err, fmt.Errorf("bad result line %q", last))
	}
	if err != nil {
		return r, err
	}
	if !r.Correct {
		return r, errors.New(`it printed "correct": false`)
	}
	for _, m := range ms {
		if _, ok := r.Metrics[m.Name]; !ok {
			return r, fmt.Errorf("its result has no %s", m.Name)
		}
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics (0s when empty).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// judge compares paired runs of one metric: the pairs the change wins,
// and the verdict.
func judge(m metricDecl, base, change []float64) (wins int, verdict string) {
	if len(base) == 0 {
		return 0, "unresolved"
	}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	dominates := true
	for i, c := range change {
		if better(c, base[i]) {
			wins++
		}
		for _, b := range base {
			dominates = dominates && better(c, b)
		}
	}
	q1, bmed, q3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	worse := cmed - bmed // how much worse the change's median reads
	if m.Better == "higher" {
		worse = -worse
	}
	bound := m.Bound * math.Abs(bmed)
	switch {
	case worse > bound:
		return wins, "regressed"
	case q3-q1 > bound && !dominates:
		return wins, "unresolved"
	case pairs*wins >= gainWins*len(base) && -worse > q3-q1:
		return wins, "gain"
	}
	return wins, "ok"
}

// report prints the ledger as a table and reports whether the gate
// failed: a regression or a failure.
func report(stdout io.Writer, l ledger) bool {
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\nworkload\tmetric\tbase median [q1–q3]\tchange median [q1–q3]\tchange wins\tverdict\n")
	failed := len(l.Failures) > 0
	var unresolved []string
	for _, w := range l.Workloads {
		for _, m := range w.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g–%.4g]\t%.4g [%.4g–%.4g]\t%d/%d\t%s\n", w.Name, m.Name,
				m.Base.Median, m.Base.Q1, m.Base.Q3, m.Change.Median, m.Change.Q1, m.Change.Q3,
				m.Wins, len(m.Base.Runs), m.Verdict)
			failed = failed || m.Verdict == "regressed"
			if m.Verdict == "unresolved" {
				unresolved = append(unresolved, w.Name+" "+m.Name)
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "\nbase %s (%s) against %s (dirty: %t) on %s, GOMAXPROCS=%d, %s; wrote BENCH_sim.json\n",
		l.Header.Base, l.Header.BaseCommit, l.Header.Commit, l.Header.Dirty, l.Header.CPUModel, l.Header.GOMAXPROCS, l.Header.GoVersion)
	if len(unresolved) > 0 {
		fmt.Fprintf(stdout, "unresolved (the base's runs spread wider than the bound): %s\n", strings.Join(unresolved, ", "))
	}
	for _, f := range l.Failures {
		fmt.Fprintln(stdout, "failure:", f)
	}
	return failed
}
