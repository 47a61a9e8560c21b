package main

import (
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

func TestRunExport(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "lr")
	if err := run([]string{"-n", "2", "-skip-expected", "-export-prefix", prefix}); err != nil {
		t.Fatalf("run -export-prefix: %v", err)
	}
	for _, suffix := range []string{".tra", ".lab"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Errorf("missing export file %s: %v", prefix+suffix, err)
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
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
