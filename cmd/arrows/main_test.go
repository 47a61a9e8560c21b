package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestRunBuiltinScript(t *testing.T) {
	if err := run([]string{"-n", "2", "-k", "1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCustomScript(t *testing.T) {
	script := `
let p = premise P --1,1--> C : Proposition A.1
check p
print p
`
	path := filepath.Join(t.TempDir(), "script.arrows")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "2", "-script", path}); err != nil {
		t.Fatalf("run custom script: %v", err)
	}
}

func TestRunBadScript(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.arrows")
	if err := os.WriteFile(path, []byte("let x = premise T --99--> C"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "2", "-script", path}); err == nil {
		t.Error("malformed script accepted")
	}
	if err := run([]string{"-n", "2", "-script", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing script file accepted")
	}
}

func TestRunFailingPremiseRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "false.arrows")
	// P --0,1--> C is false: crit takes one time unit.
	if err := os.WriteFile(path, []byte("let x = premise P --0,1--> C"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "2", "-script", path}); err == nil {
		t.Error("false premise accepted under -check-premises")
	}
}

// TestRunBadFlags: an out-of-range size is a usage error raised before
// the header line and before the script file is read, so nothing
// reaches stdout.
func TestRunBadFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "1"}, "-n must be"},
		{[]string{"-n", "17"}, "-n must be"},
		{[]string{"-k", "0"}, "-k must be"},
		{[]string{"-k", "16"}, "-k must be"},
		{[]string{"-n", "17", "-script", missing}, "-n must be"},
	} {
		out, err := clitest.Stdout(t, func() error { return run(tc.args) })
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want prefix %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("args %v: wrote %q before refusing", tc.args, out)
		}
	}
}
