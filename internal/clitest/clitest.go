// Package clitest holds what the commands' tests share: running a
// command with its standard output captured, so a test can compare
// outputs byte for byte or require that a refused invocation printed
// nothing.
package clitest

import (
	"io"
	"os"
	"strings"
	"testing"
)

// Stdout runs f with os.Stdout redirected to a pipe and returns what f
// wrote there, along with f's error. The pipe is drained while f runs,
// so output of any size goes through.
func Stdout(t testing.TB, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		var sb strings.Builder
		if _, err := io.Copy(&sb, r); err != nil {
			t.Errorf("drain stdout pipe: %v", err)
		}
		done <- sb.String()
	}()
	old := os.Stdout
	os.Stdout = w
	runErr := f()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done, runErr
}
