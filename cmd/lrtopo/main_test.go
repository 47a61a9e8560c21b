package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mdp"
)

// TestRunSmall pins E14's n=3, k=1 numbers: both products' sizes, the
// curves at t=9 and t=13, and the worst expected times.
func TestRunSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"ring(3): 9637 product states\n",
		"path(3): 11730 product states\n",
		"\n9   3/4      1\n",
		"\n13  15/16    1\n",
		"ring(3): tightest horizon for p=1/8 is t=7; worst expected time to C = 8.9167",
		"path(3): tightest horizon for p=1/8 is t=7; worst expected time to C = 7.5000",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestRunBadSize(t *testing.T) {
	if err := run([]string{"-n", "1"}, new(bytes.Buffer)); err == nil {
		t.Error("single-process topology accepted")
	}
}

// TestRunBadFlags: every out-of-range flag is refused before any
// exploration, so nothing reaches stdout; a -horizon past
// mdp.MaxHorizon included.
func TestRunBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "1"}, "-n must be"},
		{[]string{"-n", "17"}, "-n must be"},
		{[]string{"-k", "0"}, "-k must be"},
		{[]string{"-k", "16"}, "-k must be"},
		{[]string{"-horizon", "-1"}, "-horizon must be"},
		{[]string{"-horizon", strconv.Itoa(mdp.MaxHorizon + 1)}, "-horizon must be"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want prefix %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: wrote %q before refusing", tc.args, out.String())
		}
	}
}
