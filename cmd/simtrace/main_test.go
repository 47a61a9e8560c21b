package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/fault"
	"repro/internal/obs/span"
)

// writeFixture scripts a tiny two-service trace onto a FakeClock and
// writes it as two files (coordinator and worker), returning the paths.
func writeFixture(t *testing.T, dir string) (string, string) {
	t.Helper()
	clk := fault.NewFakeClock(time.Unix(1_700_000_000, 0))
	coordPath := filepath.Join(dir, "coord.jsonl")
	workPath := filepath.Join(dir, "w1.jsonl")
	coord, err := span.Open(coordPath, span.Options{Service: "coord", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := span.Open(workPath, span.Options{Service: "w1", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	w1.AdoptTrace(coord.TraceID())

	job := coord.Start("job", span.SpanContext{}, span.Str("model", "dining"))
	lease := coord.Start("lease", job.Context(), span.Str("lease", "lease-1"), span.Str("worker", "w1"), span.Int("lo", 0), span.Int("hi", 2))
	wl := w1.Start("worker.lease", lease.Context(), span.Str("worker", "w1"))
	for chunk := 0; chunk < 2; chunk++ {
		end := span.ChunkSpans(w1, wl.Context()).ChunkStart(chunk, 64)
		clk.Advance(time.Duration(1+chunk) * 3 * time.Millisecond)
		end(64, 0)
	}
	wl.End(span.Str("outcome", "delivered"))
	lease.End(span.Str("outcome", "delivered"), span.Int("accepted", 2))
	clk.Advance(time.Millisecond)
	job.End(span.Str("outcome", "complete"))
	for _, tr := range []*span.Tracer{coord, w1} {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return coordPath, workPath
}

// capture runs the CLI with stdout captured and returns its output.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	return clitest.Stdout(t, func() error { return run(args) })
}

// TestSimtraceDeterministic: merging the same fixture twice renders
// byte-identical reports with the expected sections, and the critical
// path is non-empty.
func TestSimtraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	coordPath, workPath := writeFixture(t, dir)

	out1, err := capture(t, []string{coordPath, workPath})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out2, err := capture(t, []string{coordPath, workPath})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out1 != out2 {
		t.Errorf("output not deterministic:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	for _, want := range []string{
		"services [coord w1]",
		"timeline:",
		"critical path (",
		"phase latency:",
		"worker.lease",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("output missing %q:\n%s", want, out1)
		}
	}
	if strings.Contains(out1, "critical path (0 hops") {
		t.Errorf("critical path is empty:\n%s", out1)
	}
	// File order must not matter: spans merge by ID, order by time.
	swapped, err := capture(t, []string{workPath, coordPath})
	if err != nil {
		t.Fatalf("run swapped: %v", err)
	}
	if swapped != out1 {
		t.Errorf("output depends on file order:\n--- coord-first\n%s\n--- worker-first\n%s", out1, swapped)
	}
}

// TestSimtraceDOT checks -dot emits a digraph over the same spans.
func TestSimtraceDOT(t *testing.T) {
	dir := t.TempDir()
	coordPath, workPath := writeFixture(t, dir)
	out, err := capture(t, []string{"-dot", coordPath, workPath})
	if err != nil {
		t.Fatalf("run -dot: %v", err)
	}
	if !strings.HasPrefix(out, "digraph trace {") {
		t.Errorf("-dot output does not start with a digraph:\n%s", out)
	}
	if !strings.Contains(out, "color=red") {
		t.Errorf("-dot output has no critical-path highlighting:\n%s", out)
	}
}

// TestSimtraceErrors covers the argument and empty-input error paths.
func TestSimtraceErrors(t *testing.T) {
	if _, err := capture(t, nil); err == nil {
		t.Error("no args: want error")
	}
	if _, err := capture(t, []string{filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Error("missing file: want error")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, []string{empty}); err == nil || !strings.Contains(err.Error(), "no spans") {
		t.Errorf("empty trace: err = %v, want 'no spans'", err)
	}
}
