package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const rawBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkParallelTrials-4   	      37	  31460580 ns/op	      8137 trials/s	24263347 B/op	  462018 allocs/op
BenchmarkMetricsOverhead/disabled-4 	       5	  33045894 ns/op	      7747 trials/s	24263347 B/op	  462018 allocs/op
BenchmarkMetricsOverhead/enabled-4  	       5	  34445218 ns/op	      7432 trials/s	24263360 B/op	  462019 allocs/op
PASS
`

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkMetricsOverhead/enabled-4  	       5	  34445218 ns/op	 7432 trials/s	24263360 B/op	  462019 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkMetricsOverhead/enabled-4" || r.Iterations != 5 {
		t.Errorf("parsed %+v", r)
	}
	want := map[string]float64{"ns/op": 34445218, "trials/s": 7432, "B/op": 24263360, "allocs/op": 462019}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %g, want %g", unit, r.Metrics[unit], v)
		}
	}

	for _, line := range []string{"", "PASS", "goos: linux", "Benchmark x y", "BenchmarkFoo 10"} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("non-result line %q parsed", line)
		}
	}
}

func TestRunRawAndJSONInput(t *testing.T) {
	// Raw bench text on stdin, JSON document on stdout.
	var sb strings.Builder
	if err := run(nil, strings.NewReader(rawBench), &sb); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(rep.Benchmarks) != 3 || rep.GoVersion == "" {
		t.Fatalf("report = %+v", rep)
	}

	// The same lines arriving as a `go test -json` stream, written to -o.
	// test2json splits each result line into a name fragment (no newline)
	// and a metrics fragment, so the stream is built the way the real tool
	// emits it.
	var jsonl strings.Builder
	emit := func(e event) {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		jsonl.Write(b)
		jsonl.WriteByte('\n')
	}
	for _, line := range strings.Split(strings.TrimSuffix(rawBench, "\n"), "\n") {
		if name, rest, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "Benchmark") {
			emit(event{Action: "output", Package: "repro", Test: name, Output: name + " \t"})
			emit(event{Action: "output", Package: "repro", Test: name, Output: rest + "\n"})
			continue
		}
		emit(event{Action: "output", Package: "repro", Output: line + "\n"})
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-o", out}, strings.NewReader(jsonl.String()), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep2 Report
	if err := json.Unmarshal(data, &rep2); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Benchmarks) != 3 || rep2.Benchmarks[2].Metrics["allocs/op"] != 462019 {
		t.Errorf("json-stream report = %+v", rep2)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-x"}, strings.NewReader(""), nil); err == nil {
		t.Error("bad args accepted")
	}
	if err := run(nil, strings.NewReader("no benchmarks here\n"), nil); err == nil {
		t.Error("benchmark-free input accepted")
	}
}

// writeReport marshals a Report fixture to a temp file for -compare tests.
func writeReport(t *testing.T, dir, name string, results ...Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{GoVersion: "go", GOOS: "linux", GOARCH: "amd64", Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{
			"ns/op": 1000, "allocs/op": 500, "trials/s": 7000, "widgets": 3,
		}},
		Result{Name: "BenchmarkGone-4", Iterations: 10, Metrics: map[string]float64{"ns/op": 1}},
	)

	// Within threshold everywhere (and a dropped benchmark): the gate passes.
	ok := writeReport(t, dir, "ok.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{
			"ns/op": 1050, "allocs/op": 90, "trials/s": 6800, "widgets": 9,
		}})
	var sb strings.Builder
	if err := run([]string{"-compare", oldPath, ok}, nil, &sb); err != nil {
		t.Fatalf("within-threshold compare failed: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"improved", "missing", "no regressions"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, sb.String())
		}
	}

	// A /op metric up past the threshold: exit with an error.
	slow := writeReport(t, dir, "slow.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{
			"ns/op": 1200, "allocs/op": 500, "trials/s": 7000, "widgets": 3,
		}})
	sb.Reset()
	if err := run([]string{"-compare", oldPath, slow}, nil, &sb); err == nil {
		t.Errorf("ns/op regression passed the gate:\n%s", sb.String())
	}

	// A /s metric down past the threshold: also an error; a custom unit
	// ("widgets") moving wildly is informational only.
	thr := writeReport(t, dir, "thr.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{
			"ns/op": 1000, "allocs/op": 500, "trials/s": 5000, "widgets": 400,
		}})
	sb.Reset()
	err := run([]string{"-compare", oldPath, thr}, nil, &sb)
	if err == nil {
		t.Errorf("trials/s regression passed the gate:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "1 metric(s) regressed") {
		t.Errorf("widgets should not count as a regression: %v", err)
	}
	// A looser threshold lets the same diff through.
	sb.Reset()
	if err := run([]string{"-compare", oldPath, thr, "-threshold", "0.5"}, nil, &sb); err != nil {
		t.Errorf("loose threshold still failed: %v", err)
	}

	// Bytes per state is a cost like B/op: growing past the threshold
	// fails the gate, shrinking past it is an improvement.
	bOld := writeReport(t, dir, "b_old.json",
		Result{Name: "BenchmarkE-1", Iterations: 10, Metrics: map[string]float64{"B/state": 40}})
	bFat := writeReport(t, dir, "b_fat.json",
		Result{Name: "BenchmarkE-1", Iterations: 10, Metrics: map[string]float64{"B/state": 86}})
	sb.Reset()
	if err := run([]string{"-compare", bOld, bFat}, nil, &sb); err == nil {
		t.Errorf("B/state growing 40 -> 86 passed the gate:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-compare", bFat, bOld}, nil, &sb); err != nil || !strings.Contains(sb.String(), "improved") {
		t.Errorf("B/state shrinking 86 -> 40: err = %v, want an improvement:\n%s", err, sb.String())
	}
}

// TestCompareMetricMissing: a metric the baseline had but the new run
// lost must fail the gate — a vanished trials/s column is not a pass.
func TestCompareMetricMissing(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{"ns/op": 1000, "trials/s": 7000}})
	lost := writeReport(t, dir, "lost.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{"ns/op": 1000}})
	var sb strings.Builder
	err := run([]string{"-compare", oldPath, lost}, nil, &sb)
	if err == nil {
		t.Fatalf("missing trials/s metric passed the gate:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "metric missing") {
		t.Errorf("output does not name the missing metric:\n%s", sb.String())
	}
}

// TestCompareZeroAndNaNBaselines: a zero /op baseline regresses on any
// increase instead of dividing by zero, a zero rate baseline cannot
// regress, and NaN on either side fails rather than reading as "ok".
func TestCompareZeroAndNaNBaselines(t *testing.T) {
	dir := t.TempDir()

	// 0 allocs/op baseline; new run allocates: regression.
	zeroOp := writeReport(t, dir, "zero_op.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{"allocs/op": 0}})
	alloc := writeReport(t, dir, "alloc.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{"allocs/op": 1}})
	if err := run([]string{"-compare", zeroOp, alloc}, nil, io.Discard); err == nil {
		t.Error("0 -> 1 allocs/op passed the gate")
	}
	// Same zero baseline, still zero: fine.
	if err := run([]string{"-compare", zeroOp, zeroOp}, nil, io.Discard); err != nil {
		t.Errorf("0 -> 0 allocs/op failed: %v", err)
	}

	// Zero rate baseline: any new rate is not a regression.
	zeroRate := writeReport(t, dir, "zero_rate.json",
		Result{Name: "BenchmarkB-4", Iterations: 10, Metrics: map[string]float64{"trials/s": 0}})
	someRate := writeReport(t, dir, "some_rate.json",
		Result{Name: "BenchmarkB-4", Iterations: 10, Metrics: map[string]float64{"trials/s": 5}})
	if err := run([]string{"-compare", zeroRate, someRate}, nil, io.Discard); err != nil {
		t.Errorf("0 -> 5 trials/s failed the gate: %v", err)
	}

	// A NaN metric cannot arrive through a JSON artifact (the encoding
	// rejects it), but checkFloors guards against one anyway: a floor on
	// a NaN measurement is a violation, never a pass.
	nanRep := Report{Benchmarks: []Result{
		{Name: "BenchmarkB-4", Iterations: 10, Metrics: map[string]float64{"trials/s": math.NaN()}},
	}}
	var sb strings.Builder
	if v := checkFloors([]floor{{bench: "BenchmarkB", unit: "trials/s", min: 1}}, nanRep, &sb); v != 1 {
		t.Errorf("NaN measurement yielded %d floor violations, want 1:\n%s", v, sb.String())
	}
}

// TestCompareFloor: the repeatable -floor flag bounds the new artifact
// absolutely — below the floor (or above, for /op ceilings), or not
// measured at all, fails the gate regardless of the relative diff.
func TestCompareFloor(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{"trials/s": 7000, "allocs/op": 0}})
	newPath := writeReport(t, dir, "new.json",
		Result{Name: "BenchmarkA-4", Iterations: 10, Metrics: map[string]float64{"trials/s": 7100, "allocs/op": 0}})

	// Satisfied floor (name given without the -4 suffix) and ceiling.
	if err := run([]string{"-compare", oldPath, newPath,
		"-floor", "BenchmarkA:trials/s=7000", "-floor", "BenchmarkA:allocs/op=0"}, nil, io.Discard); err != nil {
		t.Errorf("satisfied floors failed the gate: %v", err)
	}
	// Floor above the measured rate: violation even though the diff improved.
	var sb strings.Builder
	err := run([]string{"-compare", oldPath, newPath, "-floor", "BenchmarkA:trials/s=8000"}, nil, &sb)
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Errorf("violated floor passed the gate (err=%v):\n%s", err, sb.String())
	}
	// Bytes per state is a cost, so its -floor is a ceiling: 86 B/state
	// violates a bound of 45, and 40 meets it.
	fat := writeReport(t, dir, "fat.json",
		Result{Name: "BenchmarkE-1", Iterations: 10, Metrics: map[string]float64{"B/state": 86}})
	lean := writeReport(t, dir, "lean.json",
		Result{Name: "BenchmarkE-1", Iterations: 10, Metrics: map[string]float64{"B/state": 40}})
	if err := run([]string{"-compare", fat, fat, "-floor", "BenchmarkE:B/state=45"}, nil, io.Discard); err == nil {
		t.Error("86 B/state passed a 45 B/state ceiling")
	}
	sb.Reset()
	if err := run([]string{"-compare", lean, lean, "-floor", "BenchmarkE:B/state=45"}, nil, &sb); err != nil || !strings.Contains(sb.String(), "floor ok") {
		t.Errorf("40 B/state against a 45 B/state ceiling: err = %v\n%s", err, sb.String())
	}
	// Floor on a benchmark the artifact does not have: violation.
	if err := run([]string{"-compare", oldPath, newPath, "-floor", "BenchmarkNope:trials/s=1"}, nil, io.Discard); err == nil {
		t.Error("floor on an unmeasured benchmark passed the gate")
	}
	// Floor on a metric the benchmark does not report: violation.
	if err := run([]string{"-compare", oldPath, newPath, "-floor", "BenchmarkA:widgets/s=1"}, nil, io.Discard); err == nil {
		t.Error("floor on an unreported metric passed the gate")
	}
	// Malformed floor specs are usage errors.
	for _, bad := range []string{"BenchmarkA:trials/s", "BenchmarkA=5", ":trials/s=5", "BenchmarkA:=5", "BenchmarkA:trials/s=x", "BenchmarkA:trials/s=NaN"} {
		if err := run([]string{"-compare", oldPath, newPath, "-floor", bad}, nil, io.Discard); err == nil {
			t.Errorf("malformed -floor %q accepted", bad)
		}
	}
}

func TestCompareBadInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json",
		Result{Name: "BenchmarkA-4", Iterations: 1, Metrics: map[string]float64{"ns/op": 1}})
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-compare"},
		{"-compare", good},
		{"-compare", good, good, "-threshold", "0"},
		{"-compare", good, good, "-threshold", "x"},
		{"-compare", good, good, "extra", "args"},
		{"-compare", filepath.Join(dir, "nope.json"), good},
		{"-compare", good, empty},
	} {
		if err := run(args, nil, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// Identical files: trivially no regressions.
	if err := run([]string{"-compare", good, good}, nil, io.Discard); err != nil {
		t.Errorf("self-compare failed: %v", err)
	}
}
