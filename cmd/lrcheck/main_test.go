package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-n", "zero"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-n", "1"}); err == nil {
		t.Error("ring of one accepted")
	}
	for _, args := range [][]string{
		{"-n", "2", "-workers", "-3"},
		{"-n", "2", "-mem-budget", "-5"},
		{"-n", "2", "-curve", "-2"},
		{"-n", "2", "-json", "-witness"},
		{"-n", "2", "-json", "-lemmas"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
