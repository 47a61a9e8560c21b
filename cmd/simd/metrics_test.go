package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSimdMetricsOutCheckedAtStart: an unwritable -metrics-out fails the
// command before it does any work. The coordinator never listens, so its
// -addr-file never appears (-quorum-timeout bounds one that does), and
// the worker never contacts its coordinator.
func TestSimdMetricsOutCheckedAtStart(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no", "such", "m.json")

	addrFile := filepath.Join(dir, "addr")
	_, stderr, err := runCLI(t, append([]string{"coordinate", "-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-quorum-timeout", "1s", "-metrics-out", bad}, jobArgs...)...)
	if err == nil {
		t.Error("coordinator with an unwritable -metrics-out exited 0")
	}
	if !strings.Contains(stderr, "simd: -metrics-out:") {
		t.Errorf("coordinator error does not name -metrics-out:\n%s", stderr)
	}
	if _, err := os.Stat(addrFile); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("coordinator wrote -addr-file before failing (stat: %v)", err)
	}

	var requests atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer coord.Close()
	_, stderr, err = runCLI(t, "work", "-coordinator", coord.URL, "-metrics-out", bad)
	if err == nil {
		t.Error("worker with an unwritable -metrics-out exited 0")
	}
	if !strings.Contains(stderr, "simd: -metrics-out:") {
		t.Errorf("worker error does not name -metrics-out:\n%s", stderr)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("worker sent %d requests before failing", n)
	}
}
