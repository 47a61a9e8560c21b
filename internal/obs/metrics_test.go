package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from 8 goroutines — the
// satellite -race check: concurrent increments must lose nothing, and the
// final snapshot must be exact once the writers are quiescent.
func TestRegistryConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10_000
	)
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Get-or-create races on purpose: every goroutine resolves the
			// same names.
			c := reg.Counter("trials")
			ga := reg.Gauge("inflight")
			h := reg.Histogram("steps", 1, 10, 100)
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(float64(i % 150))
				ga.Add(-1)
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["trials"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Gauges["inflight"]; got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced adds", got)
	}
	h := snap.Histograms["steps"]
	if h.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Errorf("bucket sum %d != count %d (quiescent snapshot must be consistent)", bucketSum, h.Count)
	}
}

// TestSnapshotMidFlight takes snapshots while writers are running:
// counters must be monotone between snapshots and never exceed the final
// total.
func TestSnapshotMidFlight(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	const total = 50_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			c.Inc()
		}
	}()
	var last int64
	for {
		select {
		case <-done:
			if got := reg.Snapshot().Counters["n"]; got != total {
				t.Errorf("final counter = %d, want %d", got, total)
			}
			return
		default:
			got := reg.Snapshot().Counters["n"]
			if got < last || got > total {
				t.Fatalf("snapshot went backwards or overshot: %d after %d", got, last)
			}
			last = got
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	// Upper-inclusive buckets: (-inf,1], (1,2], (2,4], (4,+inf).
	cases := []struct {
		x      float64
		bucket int
	}{
		{0, 0}, {1, 0}, // exactly on a bound lands in that bucket
		{1.0000001, 1}, {2, 1},
		{3, 2}, {4, 2},
		{4.5, 3}, {math.Inf(1), 3}, // overflow
		{-5, 0},
	}
	for _, c := range cases {
		h.Observe(c.x)
	}
	snap := h.Snapshot()
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i := range want {
		if snap.Counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], want[i], snap.Counts)
		}
	}
	if snap.Count != int64(len(cases)) {
		t.Errorf("count = %d, want %d", snap.Count, len(cases))
	}
}

// TestHistogramBucketHelper pins the boundary semantics of the single
// bucket classifier every observation path shares: exactly-on-a-bound is
// upper-inclusive, and Observe, ObserveN, ObserveBatch and
// ObserveIntBatch all classify through it identically.
func TestHistogramBucketHelper(t *testing.T) {
	bounds := []float64{-1, 0, 1, 2, 4}
	cases := []struct {
		x    float64
		want int
	}{
		{math.Inf(-1), 0}, {-2, 0}, {-1, 0}, // below and on the first bound
		{-0.5, 1}, {0, 1}, // zero is a bound: lands in its own bucket
		{0.5, 2}, {1, 2},
		{1.5, 3}, {2, 3},
		{3, 4}, {4, 4},
		{4.000001, 5}, {100, 5}, {math.Inf(1), 5}, // overflow bucket
	}
	h := NewHistogram(bounds...)
	for _, c := range cases {
		if got := h.bucket(c.x); got != c.want {
			t.Errorf("bucket(%g) = %d, want %d", c.x, got, c.want)
		}
	}
	// Integer-valued boundary samples must land identically through all
	// four observation paths.
	ints := []int64{-1, 0, 1, 2, 4, 5}
	xs := make([]float64, len(ints))
	for i, v := range ints {
		xs[i] = float64(v)
	}
	one, n, batch, intBatch := NewHistogram(bounds...), NewHistogram(bounds...), NewHistogram(bounds...), NewHistogram(bounds...)
	for _, x := range xs {
		one.Observe(x)
		n.ObserveN(x, 1)
	}
	batch.ObserveBatch(xs)
	intBatch.ObserveIntBatch(ints)
	ref := one.Snapshot().Counts
	for name, h := range map[string]*Histogram{"ObserveN": n, "ObserveBatch": batch, "ObserveIntBatch": intBatch} {
		if got := h.Snapshot().Counts; !reflect.DeepEqual(got, ref) {
			t.Errorf("%s counts = %v, want %v (Observe)", name, got, ref)
		}
	}
}

func TestHistogramMoments(t *testing.T) {
	h := NewHistogram(10)
	for _, x := range []float64{1, 2, 3, 4} {
		h.Observe(x)
	}
	s := h.Snapshot()
	if s.Sum != 10 || s.SumSq != 30 {
		t.Errorf("sum, sumsq = %g, %g; want 10, 30", s.Sum, s.SumSq)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for name, mk := range map[string]func(){
		"empty":    func() { NewHistogram() },
		"unsorted": func() { NewHistogram(3, 1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			mk()
		}()
	}
}

func TestRegistryHandlerAndExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(3)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler emitted invalid JSON: %v", err)
	}
	if snap.Counters["hits"] != 3 {
		t.Errorf("handler snapshot = %+v", snap)
	}

	// Publishing twice must not panic, and the latest registry must win.
	reg.PublishExpvar("test_metrics")
	reg2 := NewRegistry()
	reg2.Counter("hits").Add(9)
	reg2.PublishExpvar("test_metrics")
	v := expvar.Get("test_metrics")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if !strings.Contains(v.String(), `"hits":9`) {
		t.Errorf("expvar shows stale registry: %s", v.String())
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim.trials_completed").Add(7)
	d, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for path, want := range map[string]string{
		"/debug/metrics": `"sim.trials_completed": 7`,
		"/debug/pprof/":  "goroutine",
		"/debug/vars":    "memstats",
	} {
		resp, err := http.Get("http://" + d.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}

	if _, err := ServeDebug("this is not an address", reg); err == nil {
		t.Error("malformed address accepted")
	}
}

func TestSimMetricsProgress(t *testing.T) {
	reg := NewRegistry()
	m := NewSimMetrics(reg, 100)
	// Two chunks of 20 trials: trial i takes 10+i steps and, when even,
	// reaches the target at time 5+i%3.
	for lo := 0; lo < 40; lo += 20 {
		var events []int64
		var reach []float64
		for i := lo; i < lo+20; i++ {
			events = append(events, int64(10+i))
			if i%2 == 0 {
				reach = append(reach, float64(5+i%3))
			}
		}
		m.TrialBatchDone(20, len(reach), events, reach, 0.02)
	}
	m.TrialsRestored(20)
	m.TrialQuarantined(99)
	m.ChunkActive(1)
	m.CheckpointSaved()

	s := m.Progress()
	if s.Done != 40 || s.Restored != 20 || s.Total != 100 {
		t.Errorf("done/restored/total = %d/%d/%d", s.Done, s.Restored, s.Total)
	}
	if s.Reached != 20 {
		t.Errorf("reached = %d, want 20", s.Reached)
	}
	if s.ReachFrac != 0.5 || s.ReachHalf <= 0 {
		t.Errorf("reach estimate = %g ±%g, want 0.5 ± >0", s.ReachFrac, s.ReachHalf)
	}
	if s.MeanReach < 5 || s.MeanReach > 7 {
		t.Errorf("mean reach time = %g, want within [5, 7]", s.MeanReach)
	}
	if s.Quarantined != 1 || s.InFlight != 1 {
		t.Errorf("quarantined/inflight = %d/%d", s.Quarantined, s.InFlight)
	}
	if s.CheckpointAgeNs < 0 {
		t.Errorf("checkpoint age = %d, want >= 0 after a save", s.CheckpointAgeNs)
	}
	if s.TrialsPerSec <= 0 {
		t.Errorf("rate = %g, want > 0", s.TrialsPerSec)
	}
	if s.ETANs <= 0 {
		t.Errorf("ETA = %d, want > 0 with 40 trials remaining", s.ETANs)
	}

	line := s.String()
	for _, want := range []string{"60/100 trials", "restored", "reached 0.5000", "quarantined 1", "in-flight 1", "checkpoint"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %s", want, line)
		}
	}

	// No checkpoint ever: age must render as absent, not a bogus ago.
	s2 := NewSimMetrics(NewRegistry(), 10).Progress()
	if s2.CheckpointAgeNs != -1 {
		t.Errorf("checkpoint age with no save = %d, want -1", s2.CheckpointAgeNs)
	}
	if strings.Contains(s2.String(), "checkpoint") {
		t.Errorf("progress line shows checkpoint without one: %s", s2.String())
	}
}

// TestSimMetricsHotPathAllocs proves the enabled metrics path allocates
// nothing per trial — together with the engine-side nil check this is the
// zero-overhead-when-disabled guarantee.
func TestSimMetricsHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	reg := NewRegistry()
	m := NewSimMetrics(reg, 1000)
	i := 0
	events, reach := []int64{37}, []float64{12.5}
	allocs := testing.AllocsPerRun(1000, func() {
		hits := 1 - i%2
		m.TrialBatchDone(1, hits, events, reach[:hits], 0.0005)
		m.ChunkActive(1)
		m.ChunkDone(i/64, 64)
		m.ChunkActive(-1)
		m.TrialQuarantined(i)
		m.TrialsRestored(1)
		i++
	})
	if allocs != 0 {
		t.Errorf("hot-path metrics allocate %.1f allocs/op, want 0", allocs)
	}
}

func TestProgressReporter(t *testing.T) {
	reg := NewRegistry()
	m := NewSimMetrics(reg, 10)
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})

	r := NewProgressReporter(w, 10*time.Millisecond, m, nil)
	r.Start()
	r.Start() // double start is a no-op
	events, reach := []int64{5}, []float64{3}
	for i := 0; i < 10; i++ {
		m.TrialBatchDone(1, 1, events, reach, 0.0001)
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()
	r.Stop() // double stop is a no-op

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: ") {
		t.Fatalf("no progress lines emitted:\n%s", out)
	}
	// Stop flushes a final sample, so the last line must show all trials.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got := lines[len(lines)-1]; !strings.Contains(got, "10/10 trials") {
		t.Errorf("final line = %q, want 10/10 trials", got)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestVersionNonEmpty(t *testing.T) {
	if v := Version(); v == "" {
		t.Error("Version() returned empty string")
	}
}

func TestReplayArgs(t *testing.T) {
	opts := map[string]string{
		"trials":   "100",
		"seed":     "3",
		"manifest": "run.jsonl",
		"progress": "1s",
	}
	got := ReplayArgs(opts, "manifest", "progress")
	// Single-token form: "-until-c true" would end flag parsing for a
	// boolean flag, "-until-c=true" never does.
	want := []string{"-seed=3", "-trials=100"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ReplayArgs = %v, want %v", got, want)
	}
}
