package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	tests := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1, 2}, 1.5, 2, 2.5},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3.25, 5.5, 7.75},
	}
	for _, tt := range tests {
		in := slices.Clone(tt.xs)
		q1, med, q3 := quartiles(tt.xs)
		if q1 != tt.q1 || med != tt.med || q3 != tt.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tt.xs, q1, med, q3, tt.q1, tt.med, tt.q3)
		}
		if !slices.Equal(in, tt.xs) {
			t.Errorf("quartiles reordered its input to %v", tt.xs)
		}
	}
}

// around returns ten values spread evenly over center ± half.
func around(center, half float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = center - half + 2*half*float64(i)/9
	}
	return xs
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "job_s", Better: "lower", Bound: 0.25}
	higher := metricDecl{Name: "throughput_per_s", Better: "higher", Bound: 0.25}
	// A base whose quartiles spread wider than the bound (IQR 75 on a
	// median of 100) though every run but three sits at about 100.
	skewed := []float64{98, 99, 100, 100, 100, 100, 101, 200, 200, 200}
	tests := []struct {
		name         string
		m            metricDecl
		base, change []float64
		wins         int
		verdict      string
	}{
		{"unchanged", lower, around(100, 2), around(100, 2), 0, "ok"},
		{"within the bound", lower, around(100, 2), around(110, 2), 0, "ok"},
		{"regressed, lower is better", lower, around(100, 2), around(130, 2), 0, "regressed"},
		{"regressed, higher is better", higher, around(100, 2), around(70, 2), 0, "regressed"},
		{"regressed though spread", lower, around(100, 60), around(200, 2), 0, "regressed"},
		{"unresolved", lower, around(100, 60), around(100, 60), 0, "unresolved"},
		{"unresolved but dominated", lower, skewed, around(96, 1), 10, "ok"},
		{"dominated by a gain", lower, around(100, 60), around(30, 1), 10, "gain"},
		{"gain, lower is better", lower, around(100, 2), around(90, 2), 10, "gain"},
		{"gain, higher is better", higher, around(100, 2), around(110, 2), 10, "gain"},
		{"gain within the bound", higher, around(100, 1), around(103, 1), 10, "gain"},
		{"faster but inside the spread", lower, around(100, 10), around(96, 2), 7, "ok"},
		{"eight wins are no gain", lower, around(100, 2),
			[]float64{80, 80, 80, 80, 80, 80, 80, 80, 200, 200}, 8, "ok"},
		{"ties count for neither", lower, []float64{1, 1, 1}, []float64{1, 1, 1}, 0, "ok"},
		{"no pairs", lower, nil, nil, 0, "unresolved"},
	}
	for _, tt := range tests {
		wins, verdict := judge(tt.m, tt.base, tt.change)
		if wins != tt.wins || verdict != tt.verdict {
			t.Errorf("%s: judge = %d wins, %q; want %d, %q", tt.name, wins, verdict, tt.wins, tt.verdict)
		}
	}
}

const testBenchmarkJSON = `{
  "command": ["bash", "perfbench/run.sh"],
  "paths": ["perfbench"],
  "run_seconds": 20,
  "workloads": [{"name": "w1"}, {"name": "w2"}],
  "end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25}
  ]
}`

// fakeRepo answers benchab's git and tar calls and plays the benchmark,
// so run is tested without starting a process.
type fakeRepo struct {
	diff, untracked string
	// bench returns one run's output and exit error.
	bench func(side, workload string, pair int) (string, error)
	runs  []string // side/workload/pair, in the order run
}

func (f *fakeRepo) exec(_ context.Context, dir string, argv ...string) ([]byte, error) {
	switch {
	case argv[0] == "git" && argv[1] == "rev-parse":
		return []byte("c0ffee\n"), nil
	case argv[0] == "git" && argv[1] == "diff":
		return []byte(f.diff), nil
	case argv[0] == "git" && argv[1] == "ls-files":
		return []byte(f.untracked), nil
	case argv[0] == "git" && (argv[1] == "status" || argv[1] == "archive"), argv[0] == "tar":
		return nil, nil
	case argv[0] == "bash":
		side := "change"
		if strings.HasSuffix(dir, filepath.Join(".bench_build", "base")) {
			side = "base"
		}
		arg := func(flag string) string { return argv[slices.Index(argv, flag)+1] }
		pair, _ := strconv.Atoi(arg("--seed"))
		if arg("--seconds") != "20" || arg("--trace") != "0" {
			return nil, fmt.Errorf("unexpected run %v", argv)
		}
		f.runs = append(f.runs, fmt.Sprintf("%s/%s/%d", side, arg("--workload"), pair))
		out, err := f.bench(side, arg("--workload"), pair)
		return []byte(out), err
	}
	return nil, fmt.Errorf("unexpected command %v", argv)
}

// benchOutput is what one benchmark run prints.
func benchOutput(correct bool, failed int, jobS float64) string {
	return fmt.Sprintf(`{"header":{"workload":"w1","cpu_model":"Test CPU","gomaxprocs":2,"go_version":"go1.24.0"}}
w1 job_s = %g s (median of 10)
{"correct":%t,"attempted":10,"failed":%d,"metrics":{"throughput_per_s":{"value":%g,"unit":"1/s"},"job_s":{"value":%g,"unit":"s"}}}
`, jobS, correct, failed, 1/jobS, jobS)
}

// steady answers every run alike.
func steady(string, string, int) (string, error) { return benchOutput(true, 0, 1), nil }

func runFake(t *testing.T, f *fakeRepo, args ...string) (string, bool, ledger, error) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(testBenchmarkJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failed, err := run(context.Background(), root, args, f.exec, &out)
	var l ledger
	if data, rerr := os.ReadFile(filepath.Join(root, "BENCH_sim.json")); rerr == nil {
		if jerr := json.Unmarshal(data, &l); jerr != nil {
			t.Fatalf("ledger: %v", jerr)
		}
	} else if err == nil {
		t.Fatalf("no ledger written: %v", rerr)
	}
	return out.String(), failed, l, err
}

func TestRunRefusesBadInput(t *testing.T) {
	tests := []struct {
		name, diff, untracked string
		args                  []string
		want                  string
	}{
		{"no base", "", "", nil, "usage"},
		{"flag for a base", "", "", []string{"-h"}, "usage"},
		{"unknown workload", "", "", []string{"HEAD", "w1", "w9"}, `unknown workload "w9"`},
		{"benchmark edited", "perfbench/main.go\n", "", []string{"HEAD"}, "perfbench/main.go"},
		{"declaration edited", "BENCHMARK.json\n", "", []string{"HEAD"}, "BENCHMARK.json"},
		{"benchmark file added", "", "perfbench/extra.go\n", []string{"HEAD"}, "perfbench/extra.go"},
	}
	for _, tt := range tests {
		f := &fakeRepo{diff: tt.diff, untracked: tt.untracked, bench: steady}
		_, _, l, err := runFake(t, f, tt.args...)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: err = %v, want one naming %q", tt.name, err, tt.want)
		}
		if len(f.runs) > 0 || l.Workloads != nil {
			t.Errorf("%s: measured %v and wrote a ledger before refusing", tt.name, f.runs)
		}
	}
}

func TestRunWritesLedger(t *testing.T) {
	f := &fakeRepo{bench: func(_, _ string, pair int) (string, error) {
		return benchOutput(true, 0, 1+float64(pair)/1000), nil
	}}
	out, failed, l, err := runFake(t, f, "HEAD")
	if err != nil || failed {
		t.Fatalf("run = %t, %v; want a pass\n%s", failed, err, out)
	}
	if want := []string{"base/w1/1", "change/w1/1", "change/w1/2", "base/w1/2"}; !slices.Equal(f.runs[:4], want) {
		t.Errorf("first runs %v, want %v (sides alternate which goes first)", f.runs[:4], want)
	}
	if len(f.runs) != 2*2*pairs {
		t.Errorf("%d runs, want %d", len(f.runs), 2*2*pairs)
	}
	h := l.Header
	if h.CPUModel != "Test CPU" || h.GOMAXPROCS != 2 || h.GoVersion != "go1.24.0" || h.BaseCommit != "c0ffee" ||
		h.Commit != "c0ffee" || h.Pairs != pairs || h.RunSeconds != 20 {
		t.Errorf("header %+v", h)
	}
	if len(l.Workloads) != 2 || len(l.Failures) != 0 {
		t.Fatalf("ledger has %d workloads and failures %v", len(l.Workloads), l.Failures)
	}
	for _, w := range l.Workloads {
		if w.Base.Attempted != 10*pairs || len(w.Metrics) != 2 {
			t.Errorf("%s: %+v", w.Name, w)
		}
		for _, m := range w.Metrics {
			if len(m.Base.Runs) != pairs || len(m.Change.Runs) != pairs || m.Verdict != "ok" || m.Base.Median != m.Change.Median {
				t.Errorf("%s %s: %+v", w.Name, m.Name, m)
			}
		}
	}
}

func TestRunFailures(t *testing.T) {
	tests := []struct {
		name      string
		bench     func(side, workload string, pair int) (string, error)
		failures  []string // substrings, one per failure expected
		verdict   string   // w1 job_s
		pairsKept int
	}{
		{"a run exits non-zero", func(side, w string, pair int) (string, error) {
			if side == "change" && w == "w1" && pair == 3 {
				return "", errors.New("exit status 1")
			}
			return steady(side, w, pair)
		}, []string{"w1 pair 3 change: exit status 1"}, "ok", pairs - 1},
		{"a base run exits non-zero", func(side, w string, pair int) (string, error) {
			if side == "base" && w == "w2" && pair == 1 {
				return benchOutput(true, 0, 1)[:20], errors.New("signal: killed")
			}
			return steady(side, w, pair)
		}, []string{"w2 pair 1 base: signal: killed"}, "ok", pairs},
		{"a run answers wrongly", func(side, w string, pair int) (string, error) {
			if side == "change" && w == "w1" && pair == 5 {
				return benchOutput(false, 1, 1), errors.New("exit status 1")
			}
			return steady(side, w, pair)
		}, []string{"w1 pair 5 change: exit status 1", "w1: the change failed 1 of 100 jobs, the base 0 of 100"}, "ok", pairs - 1},
		{"correct false with exit 0", func(side, w string, pair int) (string, error) {
			if side == "change" && w == "w1" && pair == 2 {
				return benchOutput(false, 0, 1), nil
			}
			return steady(side, w, pair)
		}, []string{`w1 pair 2 change: it printed "correct": false`}, "ok", pairs - 1},
		{"a metric missing", func(side, w string, pair int) (string, error) {
			if side == "base" && w == "w1" && pair == 4 {
				return strings.Replace(benchOutput(true, 0, 1), `"job_s"`, `"job_ms"`, 1), nil
			}
			return steady(side, w, pair)
		}, []string{"w1 pair 4 base: its result has no job_s"}, "ok", pairs - 1},
		{"a regression", func(side, w string, pair int) (string, error) {
			if side == "change" && w == "w1" {
				return benchOutput(true, 0, 1.5), nil
			}
			return steady(side, w, pair)
		}, nil, "regressed", pairs},
	}
	for _, tt := range tests {
		out, failed, l, err := runFake(t, &fakeRepo{bench: tt.bench}, "HEAD")
		if err != nil || !failed {
			t.Errorf("%s: run = %t, %v; want the gate to fail\n%s", tt.name, failed, err, out)
			continue
		}
		if len(l.Failures) != len(tt.failures) {
			t.Errorf("%s: failures %q, want %d", tt.name, l.Failures, len(tt.failures))
			continue
		}
		for i, want := range tt.failures {
			if !strings.Contains(l.Failures[i], want) {
				t.Errorf("%s: failure %q, want one naming %q", tt.name, l.Failures[i], want)
			}
		}
		m := l.Workloads[0].Metrics[1]
		if m.Name != "job_s" || m.Verdict != tt.verdict || len(m.Change.Runs) != tt.pairsKept {
			t.Errorf("%s: w1 %s reads %q over %d pairs, want %q over %d", tt.name, m.Name, m.Verdict,
				len(m.Change.Runs), tt.verdict, tt.pairsKept)
		}
	}
}
