package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/mdp"
)

func TestRunSmall(t *testing.T) {
	if err := run([]string{"-configs", "2x1", "-curve", "8", "-election", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSkips(t *testing.T) {
	if err := run([]string{"-configs", "2x1", "-curve", "0", "-election", "0"}); err != nil {
		t.Fatalf("run with skips: %v", err)
	}
}

// TestRunBadFlags: every out-of-range flag is refused by the flag
// checks, before any table is computed, so nothing reaches stdout; a
// -curve past mdp.MaxHorizon included.
func TestRunBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-configs", "2x1", "-curve", "-1"}, "-curve must be"},
		{[]string{"-configs", "2x1", "-election", "0", "-curve", strconv.Itoa(mdp.MaxHorizon + 1)}, "-curve must be"},
		{[]string{"-configs", "2x1", "-election", "-3"}, "-election must be"},
		{[]string{"-configs", "2x1", "-election", "1"}, "-election must be"},
		{[]string{"-configs", "2x1", "-curve", "0", "-election", "17"}, "-election must be"},
		{[]string{"-configs", "4x1,17x1"}, "-configs: config \"17x1\": n must be"},
		{[]string{"-configs", "1x1"}, "-configs: config \"1x1\": n must be"},
		{[]string{"-configs", "3x1,3x0"}, "-configs: config \"3x0\": k must be"},
		{[]string{"-configs", "3x16"}, "-configs: config \"3x16\": k must be"},
		{[]string{"-configs", "3x"}, "-configs:"},
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

func TestParseConfigs(t *testing.T) {
	got, err := parseConfigs("3x1, 4x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (config{n: 3, k: 1}) || got[1] != (config{n: 4, k: 2}) {
		t.Errorf("parseConfigs = %v", got)
	}
	if got, err := parseConfigs("2x1,16x15"); err != nil || len(got) != 2 {
		t.Errorf("parseConfigs at the range ends = %v, %v", got, err)
	}
	for _, bad := range []string{"", "3", "3x", "ax1", "3xb", "1x1", "17x1", "3x0", "3x16", "4x1,17x1", "-3x1"} {
		if _, err := parseConfigs(bad); err == nil {
			t.Errorf("config %q accepted", bad)
		}
	}
}
