package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mw := NewManifestWriter(f, RunMeta{
		Tool:    "lrsim",
		Version: "abc123",
		Seed:    7,
		Options: map[string]string{"trials": "100", "seed": "7"},
		Resume:  "old-state.json",
	})
	mw.PhaseStart("n=3/slowest/reach")
	mw.Progress(ProgressSnapshot{Done: 50, Total: 100})
	mw.PhaseDone("n=3/slowest/reach", "0.8750 [0.79, 0.93] (n=100)", "100/100 trials", nil)
	mw.PhaseDone("never-started", "", "", errors.New("boom"))
	mw.Step(1.5, 2, "flip_2", "[F W R]")
	reg := NewRegistry()
	reg.Counter("sim.trials_completed").Add(100)
	snap := reg.Snapshot()
	if err := mw.Close(&snap, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := log.Meta()
	if meta == nil || meta.Tool != "lrsim" || meta.Seed != 7 || meta.Resume != "old-state.json" {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.ManifestVersion != ManifestVersion {
		t.Errorf("manifest version = %d", meta.ManifestVersion)
	}
	if log.Summary == nil {
		t.Fatal("summary missing")
	}
	if len(log.Summary.Phases) != 2 {
		t.Fatalf("phases = %+v", log.Summary.Phases)
	}
	ph := log.Summary.Phases[0]
	if ph.Name != "n=3/slowest/reach" || ph.EndUnixNs < ph.StartUnixNs || ph.Estimate == "" {
		t.Errorf("phase 0 = %+v", ph)
	}
	if log.Summary.Phases[1].Err != "boom" {
		t.Errorf("phase 1 error = %q, want boom", log.Summary.Phases[1].Err)
	}
	if log.Summary.Metrics == nil || log.Summary.Metrics.Counters["sim.trials_completed"] != 100 {
		t.Errorf("summary metrics = %+v", log.Summary.Metrics)
	}
	steps := log.Steps()
	if len(steps) != 1 || steps[0].Action != "flip_2" || steps[0].Proc != 2 {
		t.Errorf("steps = %+v", steps)
	}
	var kinds []string
	for _, e := range log.Events {
		kinds = append(kinds, e.Event)
	}
	want := "run_start phase_start progress phase_done phase_done step run_done"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("event order = %q, want %q", got, want)
	}
	for _, e := range log.Events {
		if e.TimeUnixNs == 0 {
			t.Errorf("event %s has no timestamp", e.Event)
		}
	}
}

func TestManifestTruncated(t *testing.T) {
	// A run that dies before Close leaves a headless log: readable, no
	// summary.
	var sb strings.Builder
	mw := NewManifestWriter(&sb, RunMeta{Tool: "lrsim"})
	mw.PhaseStart("p")
	log, err := ReadManifest(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Summary != nil {
		t.Error("truncated manifest produced a summary")
	}
	if log.Meta() == nil {
		t.Error("truncated manifest lost its meta")
	}
}

func TestManifestVersionGuard(t *testing.T) {
	bad := `{"event":"run_start","time_unix_ns":1,"meta":{"manifest_version":999,"tool":"lrsim"}}`
	if _, err := ReadManifest(strings.NewReader(bad)); err == nil {
		t.Error("future manifest version accepted")
	}
	if _, err := ReadManifest(strings.NewReader("not json")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestManifestWriterConcurrent(t *testing.T) {
	// The writer is shared by the progress reporter goroutine and the main
	// run loop; concurrent events must serialize cleanly (-race checks the
	// locking, the decoder checks no interleaved JSON).
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	mw := NewManifestWriter(w, RunMeta{Tool: "t"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g % 3 {
				case 0:
					mw.Progress(ProgressSnapshot{Done: int64(i)})
				case 1:
					mw.Step(float64(i), g, "a", "s")
				default:
					name := "p" + string(rune('0'+g))
					mw.PhaseStart(name)
					mw.PhaseDone(name, "e", "r", nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := mw.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	log, err := ReadManifest(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("concurrent writes corrupted the stream: %v", err)
	}
	if log.Summary == nil {
		t.Fatal("summary missing")
	}
}

func TestManifestCloseIdempotentAndDropsLateEvents(t *testing.T) {
	var sb strings.Builder
	mw := NewManifestWriter(&sb, RunMeta{Tool: "t"})
	if err := mw.Close(nil, errors.New("interrupted")); err != nil {
		t.Fatal(err)
	}
	mw.Progress(ProgressSnapshot{}) // after Close: dropped
	if err := mw.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	log, err := ReadManifest(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 2 {
		t.Errorf("events after double close = %d, want 2", len(log.Events))
	}
	if log.Summary == nil || log.Summary.Err != "interrupted" {
		t.Errorf("summary = %+v", log.Summary)
	}
}

func TestInstrumentationInert(t *testing.T) {
	ins, err := Setup(Config{Tool: "lrsim"})
	if err != nil {
		t.Fatal(err)
	}
	if ins != nil {
		t.Fatal("empty config produced live instrumentation")
	}
	// All methods must be nil-receiver safe.
	if ins.Metrics() != nil {
		t.Error("nil instrumentation returned metrics")
	}
	ins.AddBudget(10)
	ins.PhaseStart("p")
	ins.PhaseDone("p", "", "", nil)
	if err := ins.Close(nil); err != nil {
		t.Error(err)
	}
}

func TestInstrumentationSinkValidation(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	if _, err := Setup(Config{Tool: "t", Manifest: filepath.Join(missing, "m.jsonl")}); err == nil {
		t.Error("unwritable manifest path accepted")
	}
	if _, err := Setup(Config{Tool: "t", MetricsOut: filepath.Join(missing, "m.json")}); err == nil {
		t.Error("unwritable metrics-out path accepted")
	}
	if _, err := Setup(Config{Tool: "t", Pprof: "bad addr:xyz"}); err == nil {
		t.Error("malformed pprof address accepted")
	}
}

func TestInstrumentationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	ins, err := Setup(Config{
		Tool:        "lrsim",
		Seed:        5,
		Options:     map[string]string{"seed": "5"},
		TotalTrials: 64,
		Manifest:    manifest,
		MetricsOut:  metrics,
		Pprof:       "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	ins.PhaseStart("stage")
	events, reach := make([]int64, 64), make([]float64, 64)
	for i := range events {
		events[i], reach[i] = 10, 4
	}
	ins.Metrics().TrialBatchDone(64, 64, events, reach, 0.0064)
	ins.PhaseDone("stage", "est", "64/64 trials", nil)
	if err := ins.Close(nil); err != nil {
		t.Fatal(err)
	}

	log, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if log.Summary == nil || len(log.Summary.Phases) != 1 {
		t.Fatalf("summary = %+v", log.Summary)
	}
	if log.Summary.Metrics.Counters["sim.trials_completed"] != 64 {
		t.Errorf("manifest metrics = %+v", log.Summary.Metrics.Counters)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "sim.trials_completed") {
		t.Errorf("metrics-out missing counters:\n%s", data)
	}
}

// The manifest writer must keep satisfying the trace package's streaming
// Sink interface — the link is structural, so this is the only place the
// compiler checks it.
var _ trace.Sink = (*ManifestWriter)(nil)
