package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestRunSmall(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "3", "-k", "1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunBadSize(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "1"}); err == nil {
		t.Error("single-process election accepted")
	}
}

func TestRunSampled(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "3", "-k", "1", "-sample", "200", "-workers", "4"}); err != nil {
		t.Fatalf("run -sample: %v", err)
	}
}

// TestRunSampledLargerSizes cross-checks the exact engine against the
// Monte Carlo sampler at sizes only the on-the-fly explorer handles
// comfortably: the derived bound must dominate the sampled mean at every
// size, and -workers must not change the exact results.
func TestRunSampledLargerSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("larger product enumerations")
	}
	for _, n := range []string{"5", "6"} {
		if err := run(context.Background(), []string{"-n", n, "-k", "1", "-sample", "200", "-workers", "4", "-seed", "7"}); err != nil {
			t.Fatalf("run -n %s -sample: %v", n, err)
		}
	}
}

func TestRunMemBudgetExceeded(t *testing.T) {
	err := run(context.Background(), []string{"-n", "4", "-k", "1", "-mem-budget", "128"})
	if err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("tiny -mem-budget: err = %v, want memory-budget failure", err)
	}
}

// TestRunBadFlags: every bad or out-of-range flag is refused before the
// header line, so nothing reaches stdout.
func TestRunBadFlags(t *testing.T) {
	tests := [][]string{
		{"-n", "0"},
		{"-n", "-4"},
		{"-n", "1"},
		{"-n", "17"},
		{"-k", "0"},
		{"-k", "-1"},
		{"-k", "16"},
		{"-sample", "-10"},
		{"-workers", "-1"},
		{"-quarantine", "-1"},
		{"-budget", "-5s"},
	}
	for _, args := range tests {
		out, err := clitest.Stdout(t, func() error { return run(context.Background(), args) })
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
		if out != "" {
			t.Errorf("args %v: wrote %q before refusing", args, out)
		}
	}
}

func TestRunSampledCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-n", "3", "-sample", "500"})
	if err == nil {
		t.Fatal("cancelled sampled run reported success")
	}
}

func TestRunSampledCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "state.json")
	base := []string{"-n", "3", "-sample", "300", "-seed", "5"}
	if err := run(context.Background(), append(base, "-checkpoint", ck, "-workers", "2")); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	cs, err := sim.LoadCheckpointSet(ck)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	cp := cs["sample"]
	if cp == nil || !cp.Complete() {
		t.Fatalf("sample stage checkpoint missing or incomplete: %+v", cp)
	}
	// Resuming from the complete state file re-derives the estimate from
	// stored chunks; mismatched parameters must refuse.
	if err := run(context.Background(), append(base, "-resume", ck, "-workers", "1")); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := run(context.Background(), append(base, "-resume", ck, "-seed", "6")); err == nil {
		t.Error("resume with mismatched -seed accepted")
	}
}

func TestRunBadObservabilityFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	tests := [][]string{
		{"-n", "3", "-progress", "-1s"},
		{"-n", "3", "-manifest", filepath.Join(missing, "run.jsonl")},
		{"-n", "3", "-metrics-out", filepath.Join(missing, "m.json")},
		{"-n", "3", "-pprof", "bad addr:xyz"},
	}
	for _, args := range tests {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSampledManifest: a sampled run records its sampling phase and the
// engine's counters in the manifest; an unsampled run still closes the
// manifest cleanly with no phases.
func TestRunSampledManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.jsonl")
	if err := run(context.Background(), []string{"-n", "3", "-sample", "128", "-seed", "5",
		"-manifest", manifest}); err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	log, err := obs.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if meta := log.Meta(); meta == nil || meta.Tool != "electcheck" || meta.Seed != 5 {
		t.Fatalf("manifest meta = %+v", log.Meta())
	}
	if log.Summary == nil || len(log.Summary.Phases) != 1 || log.Summary.Phases[0].Name != "sample" {
		t.Fatalf("summary = %+v", log.Summary)
	}
	if got := log.Summary.Metrics.Counters["sim.trials_completed"]; got != 128 {
		t.Errorf("manifest counted %d trials, want 128", got)
	}

	bare := filepath.Join(dir, "bare.jsonl")
	if err := run(context.Background(), []string{"-n", "3", "-manifest", bare}); err != nil {
		t.Fatalf("unsampled run: %v", err)
	}
	log, err = obs.LoadManifest(bare)
	if err != nil {
		t.Fatal(err)
	}
	if log.Summary == nil || len(log.Summary.Phases) != 0 {
		t.Errorf("unsampled summary = %+v", log.Summary)
	}
}
