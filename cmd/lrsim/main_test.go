package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// captureRun runs the CLI with stdout captured and returns what it
// printed, so resume runs can be compared byte-for-byte.
func captureRun(t *testing.T, ctx context.Context, args []string) (string, error) {
	t.Helper()
	return clitest.Stdout(t, func() error { return run(ctx, args) })
}

func TestRunSmall(t *testing.T) {
	if err := run(context.Background(), []string{"-sizes", "3", "-policies", "slowest,random,spiteful,paced:0.5", "-trials", "20"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunExplicitWorkers(t *testing.T) {
	// Trials shard across the pool; -workers only changes scheduling, so
	// any worker count must run cleanly on the same seed.
	for _, w := range []string{"1", "4"} {
		if err := run(context.Background(), []string{"-sizes", "3", "-policies", "spiteful", "-trials", "70", "-workers", w}); err != nil {
			t.Fatalf("run -workers %s: %v", w, err)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	tests := [][]string{
		{"-sizes", "x"},
		{"-sizes", "3", "-policies", "unknown"},
		{"-sizes", "3", "-policies", "paced:2"},
		{"-sizes", "3", "-policies", "paced:x"},
		{"-sizes", "1", "-trials", "1"},
		// Flag validation: negative or zero values must be rejected up
		// front with a usage message, not fed to the engine.
		{"-sizes", "3", "-trials", "-5"},
		{"-sizes", "3", "-trials", "0"},
		{"-sizes", "3", "-workers", "-1"},
		{"-sizes", "0"},
		{"-sizes", "-3"},
		{"-sizes", "3", "-within", "0"},
		{"-sizes", "3", "-within", "-2"},
		{"-sizes", "3", "-curve", "-1"},
		{"-sizes", "3", "-quarantine", "-1"},
		{"-sizes", "3", "-budget", "-1s"},
	}
	for _, args := range tests {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A -curve past mdp.MaxHorizon, a ring size outside 2..16 and an
	// unknown policy are refused before the size/policy table, so nothing
	// reaches stdout, no estimate runs and no curve is allocated.
	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-sizes", "3", "-policies", "slowest", "-curve", strconv.Itoa(mdp.MaxHorizon + 1)}, "-curve must be"},
		{[]string{"-sizes", "3", "-policies", "slowest", "-curve", strconv.Itoa(math.MaxInt)}, "-curve must be"},
		{[]string{"-sizes", "3,1", "-policies", "slowest"}, "ring size 1 outside 2..16"},
		{[]string{"-sizes", "3", "-policies", "slowest,bogus"}, `unknown policy "bogus"`},
	} {
		args := append(tt.args, "-trials", "20")
		out, err := captureRun(t, context.Background(), args)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("args %v: err = %v, want a usage error naming %q", args, err, tt.want)
		}
		if out != "" {
			t.Errorf("args %v printed %q before refusing", args, out)
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("3, 5,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 8 {
		t.Errorf("parseSizes = %v", got)
	}
}

func TestRunCurve(t *testing.T) {
	if err := run(context.Background(), []string{"-sizes", "3", "-policies", "slowest", "-trials", "30", "-curve", "6"}); err != nil {
		t.Fatalf("run -curve: %v", err)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	// A context cancelled before any chunk is claimed must surface
	// ErrInterrupted (wrapped) rather than fabricate results.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-sizes", "3", "-policies", "slowest", "-trials", "50"})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func TestCheckpointResumeIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "state.json")
	args := func(extra ...string) []string {
		return append([]string{"-sizes", "3", "-policies", "slowest,spiteful", "-trials", "200", "-seed", "7", "-curve", "4"}, extra...)
	}

	want, err := captureRun(t, context.Background(), args())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// A checkpointed run must produce the same output and leave a
	// loadable state file behind.
	gotCk, err := captureRun(t, context.Background(), args("-checkpoint", ck, "-workers", "3"))
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if gotCk != want {
		t.Errorf("checkpointed output differs from baseline:\n--- want\n%s\n--- got\n%s", want, gotCk)
	}
	cs, err := sim.LoadCheckpointSet(ck)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if len(cs) == 0 {
		t.Fatal("checkpoint file holds no stages")
	}
	for label, cp := range cs {
		if !cp.Complete() {
			t.Errorf("stage %q checkpoint incomplete: %d/%d trials", label, cp.Done(), cp.Trials)
		}
	}

	// Resuming from the completed state file — with a different worker
	// count — must reproduce the baseline byte-for-byte.
	gotRes, err := captureRun(t, context.Background(), args("-resume", ck, "-workers", "1"))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if gotRes != want {
		t.Errorf("resumed output differs from baseline:\n--- want\n%s\n--- got\n%s", want, gotRes)
	}

	// Resuming under mismatched parameters must refuse, not silently
	// blend incompatible estimates.
	if err := run(context.Background(), args("-resume", ck, "-seed", "8")); err == nil {
		t.Error("resume with mismatched -seed accepted")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("mismatched resume error does not mention checkpoint: %v", err)
	}
}

func TestRunBadObservabilityFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	tests := [][]string{
		{"-sizes", "3", "-progress", "-1s"},
		{"-sizes", "3", "-manifest", filepath.Join(missing, "run.jsonl")},
		{"-sizes", "3", "-metrics-out", filepath.Join(missing, "m.json")},
		{"-sizes", "3", "-pprof", "bad addr:xyz"},
	}
	for _, args := range tests {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestManifestRoundTrip is the acceptance criterion for run manifests: a
// recorded run's manifest must carry enough (seed + flag values) to replay
// the run and reproduce the same estimates bit-for-bit.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.jsonl")
	metricsOut := filepath.Join(dir, "metrics.json")
	args := []string{"-sizes", "3", "-policies", "slowest,spiteful", "-trials", "90", "-seed", "13",
		"-progress", "50ms", "-manifest", manifest, "-metrics-out", metricsOut}

	want, err := captureRun(t, context.Background(), args)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}

	log, err := obs.LoadManifest(manifest)
	if err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	meta := log.Meta()
	if meta == nil || meta.Tool != "lrsim" || meta.Seed != 13 {
		t.Fatalf("manifest meta = %+v", meta)
	}
	if log.Summary == nil {
		t.Fatal("manifest has no final summary")
	}
	if got := len(log.Summary.Phases); got != 4 {
		t.Errorf("summary has %d phases, want 4 (2 policies x 2 estimators)", got)
	}
	for _, ph := range log.Summary.Phases {
		if ph.Err != "" || ph.EndUnixNs < ph.StartUnixNs || ph.Estimate == "" {
			t.Errorf("phase %+v malformed", ph)
		}
	}
	const trialsRecorded = 4 * 90
	if got := log.Summary.Metrics.Counters["sim.trials_completed"]; got != trialsRecorded {
		t.Errorf("manifest metrics counted %d trials, want %d", got, trialsRecorded)
	}

	// Replay from the manifest alone: reconstruct the command line from
	// the recorded flag values (dropping the observability flags) and
	// compare stdout byte-for-byte.
	replay := obs.ReplayArgs(meta.Options, "manifest", "metrics-out", "progress", "pprof",
		"checkpoint", "resume", "budget")
	got, err := captureRun(t, context.Background(), replay)
	if err != nil {
		t.Fatalf("replayed run %v: %v", replay, err)
	}
	if got != want {
		t.Errorf("replayed output differs from recorded run:\n--- want\n%s\n--- got\n%s", want, got)
	}

	// The metrics snapshot is valid JSON naming the core instruments.
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics-out is not a JSON snapshot: %v", err)
	}
	if snap.Counters["sim.trials_completed"] != trialsRecorded {
		t.Errorf("metrics-out counters = %+v", snap.Counters)
	}
	if h, ok := snap.Histograms["sim.trial_steps"]; !ok || h.Count != trialsRecorded {
		t.Errorf("metrics-out trial_steps histogram = %+v", snap.Histograms)
	}
}

// TestProgressLine: -progress emits at least one self-describing progress
// line on the requested writer (stderr in production; captured here).
func TestProgressOutput(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.jsonl")
	if err := run(context.Background(), []string{"-sizes", "3", "-policies", "slowest", "-trials", "60",
		"-progress", "1ms", "-manifest", manifest}); err != nil {
		t.Fatalf("run: %v", err)
	}
	log, err := obs.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	for _, e := range log.Events {
		if e.Event == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("manifest recorded no progress samples")
	}
}
