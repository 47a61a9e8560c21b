// Command benchjson turns `go test -bench` output into a machine-readable
// JSON artifact. It accepts either the raw benchmark text or the `go test
// -json` event stream (each line a test2json record) on stdin, extracts
// the benchmark result lines, and writes one JSON document with every
// parsed metric — ns/op, B/op, allocs/op, and custom b.ReportMetric
// columns such as trials/s.
//
// With -compare, benchjson is a perf-regression gate instead: it diffs
// two of its own JSON artifacts and exits non-zero when any metric moved
// in the bad direction by more than the threshold. Costs regress upward:
// units ending in "/op" (ns/op, B/op, allocs/op) and byte counts starting
// with "B/" (B/state). Rates, units ending in "/s" (trials/s), regress
// downward. Anything else is reported but never fails the gate. Benchmarks present only in the old file are noted, not fatal
// (renames and retirements happen); a *metric* that an old benchmark
// reported but the new run lost IS fatal — a vanished trials/s column
// must not read as a pass — as is a NaN on either side, and a zero
// baseline for a /op unit regresses on any increase rather than
// dividing by zero.
//
// The repeatable -floor flag adds absolute constraints on the new
// artifact, independent of the old one: -floor 'Benchmark:unit=value'
// fails the gate when the named metric is below value (on costs it is a
// ceiling instead: they fail above value). The benchmark name
// matches with or without the -GOMAXPROCS suffix, so one floor covers
// runs at any -cpu setting.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -json ./... | benchjson -o BENCH_sim.json
//	benchjson -compare BENCH_sim.json new.json [-threshold 0.10] [-floor 'BenchmarkParallelTrials:trials/s=150000']
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmarks and the
	// GOMAXPROCS suffix, e.g. "BenchmarkMetricsOverhead/enabled-4".
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every reported column.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the document benchjson writes.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

// event is the subset of a test2json record benchjson needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var out string
	switch {
	case len(args) == 0:
	case len(args) == 2 && args[0] == "-o":
		out = args[1]
	case len(args) >= 1 && args[0] == "-compare":
		return compare(args[1:], stdout)
	default:
		return fmt.Errorf("usage: benchjson [-o file] < bench-output\n       benchjson -compare old.json new.json [-threshold 0.10]")
	}

	report := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: []Result{},
	}
	// test2json splits a benchmark result across output events — the name
	// (ending in "\t", no newline) arrives separately from the metrics —
	// so JSON-stream fragments are reassembled per test until a newline
	// completes the logical line.
	pending := map[string]string{}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// `go test -json` wraps every output line in a JSON record; raw
		// bench output is used as-is.
		if strings.HasPrefix(line, "{") {
			var e event
			if err := json.Unmarshal([]byte(line), &e); err == nil {
				if e.Action != "output" {
					continue
				}
				key := e.Package + "\x00" + e.Test
				buf := pending[key] + e.Output
				if !strings.HasSuffix(buf, "\n") {
					pending[key] = buf
					continue
				}
				delete(pending, key)
				line = strings.TrimSuffix(buf, "\n")
			}
		}
		if r, ok := parseBenchLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// floor is one -floor constraint: an absolute bound on a metric of the
// new artifact. For costs min is a ceiling (they must stay below); for
// everything else it is a floor (rates must stay above).
type floor struct {
	bench, unit string
	min         float64
}

// parseFloor parses a -floor argument of the form Benchmark:unit=value.
func parseFloor(s string) (floor, error) {
	spec, val, okEq := strings.Cut(s, "=")
	bench, unit, okColon := strings.Cut(spec, ":")
	if !okEq || !okColon || bench == "" || unit == "" {
		return floor{}, fmt.Errorf("-floor wants Benchmark:unit=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) {
		return floor{}, fmt.Errorf("-floor value in %q is not a number", s)
	}
	return floor{bench: bench, unit: unit, min: v}, nil
}

// rate reports whether a unit is a rate, which regresses downward:
// trials/s, states/s.
func rate(unit string) bool { return strings.HasSuffix(unit, "/s") }

// cost reports whether a unit is a cost, which regresses upward: ns/op,
// B/op and allocs/op, and byte counts such as B/state.
func cost(unit string) bool {
	return !rate(unit) && (strings.HasSuffix(unit, "/op") || strings.HasPrefix(unit, "B/"))
}

// matches reports whether the floor names this benchmark, with or
// without the -GOMAXPROCS suffix go test appends.
func (f floor) matches(name string) bool {
	return name == f.bench || strings.HasPrefix(name, f.bench+"-")
}

// compare implements the perf-regression gate:
//
//	benchjson -compare old.json new.json [-threshold t] [-floor Benchmark:unit=value]...
//
// Every metric of every old benchmark is diffed against the new artifact
// and a relative move past the threshold in the bad direction — or a
// metric the new run lost, or a NaN — is a regression; -floor adds
// absolute bounds on the new artifact. Any failure is reported with a
// non-nil error so the gate exits 1.
func compare(args []string, stdout io.Writer) error {
	usage := fmt.Errorf("usage: benchjson -compare old.json new.json [-threshold 0.10] [-floor Benchmark:unit=value]...")
	threshold := 0.10
	var floors []floor
	var paths []string
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-threshold":
			if i+1 >= len(args) {
				return usage
			}
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || math.IsNaN(v) || v <= 0 {
				return fmt.Errorf("-threshold wants a positive fraction, got %q", args[i])
			}
			threshold = v
		case args[i] == "-floor":
			if i+1 >= len(args) {
				return usage
			}
			i++
			f, err := parseFloor(args[i])
			if err != nil {
				return err
			}
			floors = append(floors, f)
		case strings.HasPrefix(args[i], "-"):
			return usage
		default:
			paths = append(paths, args[i])
		}
	}
	if len(paths) != 2 {
		return usage
	}
	oldRep, err := loadReport(paths[0])
	if err != nil {
		return err
	}
	newRep, err := loadReport(paths[1])
	if err != nil {
		return err
	}
	newByName := map[string]Result{}
	for _, r := range newRep.Benchmarks {
		newByName[r.Name] = r
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\told\tnew\tdelta\tverdict")
	regressions, missing := 0, 0
	for _, old := range oldRep.Benchmarks {
		cur, ok := newByName[old.Name]
		if !ok {
			missing++
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tmissing in %s\n", old.Name, paths[1])
			continue
		}
		units := make([]string, 0, len(old.Metrics))
		for unit := range old.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			ov := old.Metrics[unit]
			nv, ok := cur.Metrics[unit]
			if !ok {
				// A column the baseline had but the new run lost would
				// otherwise let a vanished trials/s pass the gate.
				regressions++
				fmt.Fprintf(tw, "%s\t%s\t%g\t-\t-\tREGRESSION (metric missing)\n", old.Name, unit, ov)
				continue
			}
			if math.IsNaN(ov) || math.IsNaN(nv) {
				// NaN compares false with everything, so the threshold
				// switch below would quietly call it "ok".
				regressions++
				fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t-\tREGRESSION (NaN)\n", old.Name, unit, ov, nv)
				continue
			}
			if ov == 0 {
				// No relative delta exists. Zero is a real baseline for
				// costs (0 allocs/op): any increase regresses. For rates
				// a zero baseline cannot be regressed below.
				verdict := "ok"
				if nv != 0 && cost(unit) {
					verdict = "REGRESSION"
					regressions++
				} else if nv != 0 {
					verdict = "info"
				}
				fmt.Fprintf(tw, "%s\t%s\t0\t%g\t-\t%s\n", old.Name, unit, nv, verdict)
				continue
			}
			delta := (nv - ov) / ov
			verdict := "ok"
			switch {
			case cost(unit) && delta > threshold, rate(unit) && delta < -threshold:
				verdict = "REGRESSION"
				regressions++
			case cost(unit) && delta < -threshold, rate(unit) && delta > threshold:
				verdict = "improved"
			case !cost(unit) && !rate(unit):
				verdict = "info"
			}
			fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t%+.1f%%\t%s\n", old.Name, unit, ov, nv, 100*delta, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if missing > 0 {
		fmt.Fprintf(stdout, "note: %d benchmark(s) missing from %s (not fatal)\n", missing, paths[1])
	}
	violations := checkFloors(floors, newRep, stdout)
	switch {
	case regressions > 0 && violations > 0:
		return fmt.Errorf("%d metric(s) regressed more than %.0f%% vs %s and %d floor(s) violated", regressions, 100*threshold, paths[0], violations)
	case regressions > 0:
		return fmt.Errorf("%d metric(s) regressed more than %.0f%% vs %s", regressions, 100*threshold, paths[0])
	case violations > 0:
		return fmt.Errorf("%d floor(s) violated", violations)
	}
	fmt.Fprintf(stdout, "no regressions past %.0f%% vs %s\n", 100*threshold, paths[0])
	return nil
}

// checkFloors evaluates every -floor constraint against the new
// artifact, printing one line per constraint, and returns the number of
// violations. A floor whose benchmark or metric the artifact lacks is a
// violation: an absolute bound that silently stopped being measured is
// exactly the failure mode the flag exists to catch.
func checkFloors(floors []floor, rep Report, stdout io.Writer) int {
	violations := 0
	for _, f := range floors {
		matched := false
		for _, r := range rep.Benchmarks {
			if !f.matches(r.Name) {
				continue
			}
			matched = true
			v, ok := r.Metrics[f.unit]
			bad := !ok || math.IsNaN(v)
			if !bad {
				if cost(f.unit) {
					bad = v > f.min
				} else {
					bad = v < f.min
				}
			}
			if bad {
				violations++
				if !ok {
					fmt.Fprintf(stdout, "FLOOR VIOLATED: %s has no %s metric (bound %g)\n", r.Name, f.unit, f.min)
				} else {
					fmt.Fprintf(stdout, "FLOOR VIOLATED: %s %s = %g, bound %g\n", r.Name, f.unit, v, f.min)
				}
			} else {
				fmt.Fprintf(stdout, "floor ok: %s %s = %g (bound %g)\n", r.Name, f.unit, v, f.min)
			}
		}
		if !matched {
			violations++
			fmt.Fprintf(stdout, "FLOOR VIOLATED: no benchmark matches %q\n", f.bench)
		}
	}
	return violations
}

// loadReport reads one benchjson artifact from disk.
func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return Report{}, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep, nil
}

// parseBenchLine parses one benchmark result line:
//
//	BenchmarkFoo/sub-4   100   12345 ns/op   7747 trials/s   24 B/op   3 allocs/op
//
// Fields after the iteration count come in value/unit pairs.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}
