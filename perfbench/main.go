// Command perfbench is the repository's benchmark. Each workload is one
// closed-loop client running one job at a time in this process, with at
// most two engine goroutines: Monte Carlo jobs through fabric.Runner
// (what `simd local` runs) with the compile cache warming early or
// hardly at all, a coordinator and two workers over loopback HTTP (what
// `simd coordinate` and `simd work` run), and the exact lrcheck chain on
// the dining product. Every answer is checked against the line recorded
// for its job seed in golden.json; Monte Carlo lines end in a digest of
// the run's checkpoint.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 runs untraced jobs for S seconds and reports the end-to-end
// metrics; --trace 1 alternates untraced and traced jobs and reports
// the per-layer metrics, taken from spans the harness records around
// each call it makes, the engine's per-chunk spans, and the spans the
// fabric workers record through Worker.Tracer. --workload all runs
// every workload in turn.
// --record FILE recomputes every recorded answer into FILE.
//
// decl.go declares the workloads and metrics: for each per-layer metric
// its module and the end-to-end metric and workload it should move. A
// workload that does not run a layer reports that layer's metrics as 0.
// The harness's own tests run with `go test ./...` in this directory.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/span"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// An untraced run builds its workload's set-up setupWarmup times
// untimed when it starts, then setupsPerJob times before each job, and
// reports the median of the timed builds as setup_s. A set-up takes
// tens to hundreds of microseconds, and the first hundred or so builds
// of a process take about twice as long as later ones, so the warm-up
// is long. Spreading the timed builds over the run samples the same
// host speeds as the jobs: a block of builds at one moment ran on one
// CPU at one speed, and its median moved by half from run to run.
const setupWarmup, setupsPerJob = 200, 16

// errIncorrect reports a run that printed its result but failed a check.
var errIncorrect = errors.New("a job failed or answered wrongly, or a layer-sum check failed")

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; it orders the job seeds the run draws from the recorded pool")
	seconds := fs.Int("seconds", 10, "how long to run jobs")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced jobs too and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "write a traced run's spans as JSONL to this file when it ends")
	rec := fs.String("record", "", "recompute every workload's answers, write them to this file as golden JSON, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rec != "" {
		return record(ctx, *rec)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return fmt.Errorf("--seconds must be >= 0, got %d", *seconds)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if workloads[n] == nil {
			return fmt.Errorf("unknown --workload %q (want %s or all)", n, strings.Join(workloadNames(), ", "))
		}
	}
	// A hung job must not outlive the run: cancel everything well before
	// a run could be killed for overstaying.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(*seconds)*time.Second+120*time.Second)
	defer cancel()

	incorrect := false
	for _, n := range names {
		o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut}
		if err := writeJSONLine(stdout, map[string]any{"header": newHeader(n, o)}); err != nil {
			return err
		}
		res, notes, err := measure(ctx, workloads[n], o)
		if err != nil {
			return err
		}
		for _, line := range notes {
			fmt.Fprintln(stdout, line)
		}
		if err := writeJSONLine(stdout, res); err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDecls {
		out = append(out, d.Name)
	}
	return out
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// header describes the machine and build a result was measured on.
type header struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	Seconds          int    `json:"seconds"`
	Traced           bool   `json:"traced"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	NumCPU           int    `json:"nproc"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	GOGC             string `json:"gogc"`
	Commit           string `json:"commit"`
	EngineGoroutines int    `json:"engine_goroutines"`
}

func newHeader(workload string, o runOpts) header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return header{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), GOGC: gogc,
		Commit: commit, EngineGoroutines: engineWorkers,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type runOpts struct {
	seed     int64
	seconds  int
	traced   bool
	traceOut string
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one completed job.
type sample struct {
	id     int
	res    jobResult
	traced bool
}

// measure runs one workload: jobs back to back for o.seconds (at least
// one; on traced runs, untraced and traced in turn, at least one of
// each), each after a forced collection so no job pays for the last
// one's garbage, and on untraced runs after timed set-up builds. It
// returns the result and human-readable notes.
func measure(ctx context.Context, w *workload, o runOpts) (result, []string, error) {
	start := time.Now()
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var notes []string
	fail := func(format string, args ...any) {
		res.Failed++
		res.Correct = false
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "perfbench: "+msg)
		notes = append(notes, "FAILED: "+msg)
	}

	var setups []float64
	setupSeed := jobSeeds(o.seed)
	buildSetups := func(n int, timed bool) error {
		for range n {
			d, err := w.setup(ctx, setupSeed())
			if err != nil {
				return fmt.Errorf("%s set-up: %w", w.Name, err)
			}
			if timed {
				setups = append(setups, d.Seconds())
			}
		}
		return nil
	}
	if !o.traced {
		if err := buildSetups(setupWarmup, false); err != nil {
			return res, nil, err
		}
	}

	var buf bytes.Buffer
	var tr *span.Tracer
	if o.traced {
		tr = span.New(&buf, span.Options{Service: "perfbench"})
	}
	next := jobSeeds(o.seed)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var samples []sample
	for id := 1; id == 1 || o.traced && id == 2 || time.Now().Before(deadline); id++ {
		traced := o.traced && id%2 == 0
		var jt *span.Tracer
		if traced {
			jt = tr
		}
		seed := next()
		if !o.traced {
			if err := buildSetups(setupsPerJob, true); err != nil {
				return res, nil, err
			}
		}
		runtime.GC()
		r, err := w.job(ctx, seed, jt, id)
		res.Attempted++
		if err != nil {
			fail("%s job %d (seed %d): %v", w.Name, id, seed, err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		samples = append(samples, sample{id: id, res: r, traced: traced})
	}

	if o.traced {
		if err := tr.Close(); err != nil {
			return res, nil, err
		}
		if o.traceOut != "" {
			if err := os.WriteFile(o.traceOut, buf.Bytes(), 0o644); err != nil {
				return res, nil, fmt.Errorf("writing trace: %w", err)
			}
		}
		recs, err := span.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return res, nil, err
		}
		notes = append(notes, layerMetrics(w.Name, samples, spanForest(recs), res.Metrics, fail))
	} else {
		notes = append(notes, endToEndMetrics(w.Name, samples, setups, res.Metrics)...)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fail("%s: metric %s is %v", w.Name, name, v.Value)
			res.Metrics[name] = metricValue{0, v.Unit}
		}
	}
	notes = append(notes, fmt.Sprintf("%s: %d jobs attempted, %d failed, failed_ops_frac = %g, %.1f s",
		w.Name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), time.Since(start).Seconds()))
	return res, notes, nil
}

// endToEndMetrics sets each end-to-end metric to its median over the
// jobs (setup_s over the set-up builds) and returns one summary line per
// metric.
func endToEndMetrics(workload string, samples []sample, setups []float64, into map[string]metricValue) []string {
	var thr, dur, heap []float64
	for _, s := range samples {
		thr = append(thr, float64(s.res.work)/s.res.dur.Seconds())
		dur = append(dur, s.res.dur.Seconds())
		heap = append(heap, float64(s.res.heap)/1e6)
	}
	values := map[string][]float64{
		"throughput_per_s": thr, "job_s": dur, "setup_s": setups, "live_heap_mb": heap,
	}
	var lines []string
	for _, m := range endToEnd {
		xs := values[m.Name]
		into[m.Name] = metricValue{median(xs), m.Unit}
		lines = append(lines, summaryLine(workload, m, xs))
	}
	return lines
}

// layerMetrics sets each per-layer metric to its median over the traced
// jobs, fails every traced job whose layers leave more than
// unaccountedTolerance of it unaccounted, and sets trace.overhead_frac
// from the traced and untraced jobs' median job_s.
func layerMetrics(workload string, samples []sample, forest map[int][]*node, into map[string]metricValue, fail func(string, ...any)) string {
	perMetric := map[string][]float64{}
	var plainDur, tracedDur []float64
	for _, s := range samples {
		if !s.traced {
			plainDur = append(plainDur, s.res.dur.Seconds())
			continue
		}
		tracedDur = append(tracedDur, s.res.dur.Seconds())
		layers := jobLayers(forest[s.id], s.res)
		if u := layers["layers.unaccounted_frac"]; u > unaccountedTolerance {
			fail("%s job %d: layers leave %.2f%% of job_s unaccounted (tolerance %.0f%%)",
				workload, s.id, 100*u, 100*unaccountedTolerance)
		}
		for _, m := range perLayer {
			perMetric[m.Name] = append(perMetric[m.Name], layers[m.Name])
		}
	}
	for _, m := range perLayer {
		into[m.Name] = metricValue{median(perMetric[m.Name]), m.Unit}
	}
	if p := median(plainDur); p > 0 {
		into["trace.overhead_frac"] = metricValue{median(tracedDur)/p - 1, "frac"}
	}
	return fmt.Sprintf("%s: %d traced and %d untraced jobs; layer self times sum to job_s within %.0f%%",
		workload, len(tracedDur), len(plainDur), 100*unaccountedTolerance)
}

// summaryLine prints one end-to-end metric: its median and the highest
// percentile with at least ten samples beyond it, with the sample count.
func summaryLine(workload string, m metricDecl, xs []float64) string {
	line := fmt.Sprintf("%s %s = %.6g %s (median of %d", workload, m.Name, median(xs), m.Unit, len(xs))
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if m.Better == "higher" {
		slices.Reverse(s) // the worst side is the low end
	}
	q := 0.0
	for _, c := range []float64{0.9, 0.99, 0.999} {
		if float64(len(xs))*(1-c) >= 10 {
			q = c
		}
	}
	if q > 0 {
		line += fmt.Sprintf("; p%g worst-side = %.6g %s", 100*q, percentile(s, q), m.Unit)
	}
	return line + ")"
}
