package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestRunSmallRing(t *testing.T) {
	if err := run([]string{"-n", "2", "-k", "1", "-curve", "8", "-witness"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunJSON(t *testing.T) {
	if err := run([]string{"-n", "2", "-json", "-curve", "4", "-skip-expected"}); err != nil {
		t.Fatalf("run -json: %v", err)
	}
}

// TestRunExport: -export-prefix writes the same PRISM files in text and
// JSON mode.
func TestRunExport(t *testing.T) {
	dir := t.TempDir()
	text, json := filepath.Join(dir, "text"), filepath.Join(dir, "json")
	if err := run([]string{"-n", "2", "-skip-expected", "-export-prefix", text}); err != nil {
		t.Fatalf("run -export-prefix: %v", err)
	}
	if err := run([]string{"-n", "2", "-skip-expected", "-json", "-export-prefix", json}); err != nil {
		t.Fatalf("run -json -export-prefix: %v", err)
	}
	// The export is the full product, not the quotient the checks run
	// on: the 2-ring's 454 product states.
	tra, err := os.ReadFile(text + ".tra")
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(string(tra), "\n"); !strings.HasPrefix(header, "454 ") {
		t.Errorf(".tra header %q, want the full product's 454 states", header)
	}
	for _, suffix := range []string{".tra", ".lab"} {
		want, err := os.ReadFile(text + suffix)
		if err != nil {
			t.Fatalf("missing export file %s: %v", text+suffix, err)
		}
		got, err := os.ReadFile(json + suffix)
		if err != nil {
			t.Fatalf("-json wrote no %s: %v", suffix, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-json wrote a different %s file", suffix)
		}
	}
}

// TestRunBadFlags: every bad or out-of-range flag is refused before the
// header line, so nothing reaches stdout.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "zero"},
		{"-n", "1"},
		{"-n", "17"},
		{"-k", "0"},
		{"-k", "16"},
		{"-n", "2", "-workers", "-3"},
		{"-n", "2", "-mem-budget", "-5"},
		{"-n", "2", "-curve", "-2"},
		{"-n", "2", "-json", "-witness"},
		{"-n", "2", "-json", "-lemmas"},
		{"-n", "17", "-json"},
	} {
		out, err := clitest.Stdout(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
		if out != "" {
			t.Errorf("args %v: wrote %q before refusing", args, out)
		}
	}
}
