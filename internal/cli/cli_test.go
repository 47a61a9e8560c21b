package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// start opens a run of a command named tool with only the run flags.
func start(t *testing.T, args ...string) (*Run, error) {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return Start(context.Background(), fs, f, 100)
}

// mustStart is start for a run that must open.
func mustStart(t *testing.T, args ...string) *Run {
	t.Helper()
	r, err := start(t, args...)
	if err != nil {
		t.Fatalf("Start(%v): %v", args, err)
	}
	return r
}

func TestStartRejectsBadRunFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-budget", "-5s"},
		{"-keep", "0"},
		{"-quarantine", "-1"},
		{"-trial-timeout", "-1s"},
		{"-progress", "-1s"},
		{"-manifest", filepath.Join(missing, "run.jsonl")},
		{"-metrics-out", filepath.Join(missing, "m.json")},
		{"-pprof", "bad addr:xyz"},
	} {
		if r, err := start(t, args...); err == nil {
			r.Close(nil)
			t.Errorf("Start accepted %v", args)
		}
	}
}

func TestStageTracing(t *testing.T) {
	r := mustStart(t)
	if popts := r.Stage("s"); popts.SpanHooks != nil || popts.PprofLabels != nil {
		t.Errorf("untraced stage has span hooks %v, pprof labels %v", popts.SpanHooks, popts.PprofLabels)
	}
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}

	r = mustStart(t, "-trace-out", filepath.Join(t.TempDir(), "run.trace"), "-seed", "7")
	popts := r.Stage("s")
	if popts.SpanHooks == nil {
		t.Error("traced stage has no span hooks")
	}
	if want := []string{"fabric_job", "tool-s7", "stage", "s"}; strings.Join(popts.PprofLabels, " ") != strings.Join(want, " ") {
		t.Errorf("pprof labels %v, want %v", popts.PprofLabels, want)
	}
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}
}

func TestStageCheckpoint(t *testing.T) {
	r := mustStart(t)
	if popts := r.Stage("a"); popts.Resume != nil || popts.CheckpointSink != nil {
		t.Error("stage without a state file resumes or checkpoints")
	}
	r.Close(nil)

	state := filepath.Join(t.TempDir(), "state.json")
	r = mustStart(t, "-checkpoint", state)
	popts := r.Stage("a")
	if popts.Resume != nil || popts.CheckpointSink == nil {
		t.Fatalf("-checkpoint stage: resume %v, sink set %t", popts.Resume, popts.CheckpointSink != nil)
	}
	cp := &sim.Checkpoint{Version: 1, Seed: 1, Trials: 64, ChunkSize: 64}
	if err := popts.CheckpointSink(cp); err != nil {
		t.Fatal(err)
	}
	r.Close(nil)

	// -resume alone loads the state file and keeps updating it.
	r = mustStart(t, "-resume", state)
	if popts := r.Stage("a"); popts.Resume == nil || popts.Resume.Trials != 64 || popts.CheckpointSink == nil {
		t.Errorf("-resume stage a: resume %+v, sink set %t", popts.Resume, popts.CheckpointSink != nil)
	}
	if popts := r.Stage("b"); popts.Resume != nil || popts.CheckpointSink == nil {
		t.Errorf("-resume stage b: resume %+v, sink set %t", popts.Resume, popts.CheckpointSink != nil)
	}
	r.Close(nil)
}

func TestReportQuarantine(t *testing.T) {
	var buf bytes.Buffer
	ReportQuarantine(&buf, "tool", "stage", 42, sim.RunReport{Total: 100, Completed: 98})
	if buf.Len() != 0 {
		t.Errorf("report without quarantined trials printed %q", buf.String())
	}
	ReportQuarantine(&buf, "tool", "n=3/reach", 42, sim.RunReport{
		Total: 100, Completed: 98, Quarantined: 2, Stalled: 1,
		Panics: []sim.PanicRecord{
			{Trial: 5, Seed: 99, Value: "boom"},
			{Trial: 9, Seed: 77, Value: "exceeded 1s", Kind: sim.RecordStalled},
		},
	})
	want := "tool: n=3/reach: 2 trials quarantined (1 panicked, 1 stalled; excluded from the estimate):\n" +
		"  trial 5 panicked: boom — replay: sim.ReproTrial(..., 42, 5)\n" +
		"  trial 9 stalled: exceeded 1s — replay: sim.ReproTrial(..., 42, 9)\n"
	if got := buf.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}

func TestCloseReturnsRunErrorFirst(t *testing.T) {
	// Writes to /dev/full fail, so the -metrics-out sink errors at Close.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	runErr := errors.New("run failed")
	r := mustStart(t, "-metrics-out", "/dev/full")
	if err := r.Close(runErr); err != runErr {
		t.Errorf("Close(run error) = %v, want the run error", err)
	}
	r = mustStart(t, "-metrics-out", "/dev/full")
	if err := r.Close(nil); err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Errorf("Close(nil) = %v, want the -metrics-out error", err)
	}
}

func TestInterruptedNamesStageAndCause(t *testing.T) {
	r := mustStart(t, "-budget", "1ns")
	<-r.Ctx.Done()
	err := r.Interrupted("sample", sim.RunReport{Total: 10, Completed: 3})
	r.Close(err)
	if want := "interrupted during sample after 3/10 trials: wall-clock budget 1ns expired"; err == nil || err.Error() != want {
		t.Errorf("Interrupted = %v, want %q", err, want)
	}
}
