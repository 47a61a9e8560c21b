package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs/span"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclarationsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloadDecls {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or reused", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if workloads[w.Name] == nil || workloads[w.Name].job == nil {
			t.Errorf("workload %s has no job", w.Name)
		}
	}
	for _, m := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or reused", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better must be higher or lower, got %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range perLayer {
		if m.Layer == "" || m.Moves == "" || m.On == "" {
			t.Errorf("metric %s: layer, moves and on must be set", m.Name)
		}
	}
	for metric := range selfSpans {
		if !declared(metric) {
			t.Errorf("self-time metric %s is not declared", metric)
		}
	}
}

func declared(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the declarations here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDecls) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloadDecls))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDecls[i].Name || w.Why != workloadDecls[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %+v", i, w, workloadDecls[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, want %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, want %s %s %s %v", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, want %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("run_seconds %d or paths %v out of contract", b.RunSeconds, b.Paths)
	}
}

// rec builds a span record spanning [start, start+dur) under parent.
func rec(id, parent, name string, start, dur int64, job int) span.Record {
	r := span.Record{ID: id, Parent: parent, Name: name, MonoNs: start, DurNs: dur}
	if parent == "" {
		r.Attrs = []span.Attr{span.Int("job", job)}
	}
	return r
}

func TestSelfTimeArithmetic(t *testing.T) {
	recs := []span.Record{
		rec("j", "", "job", 0, 100, 7),
		rec("a", "j", "a", 10, 30, 0),  // [10,40)
		rec("b", "j", "b", 30, 30, 0),  // [30,60), overlaps a
		rec("c", "j", "c", 90, 30, 0),  // [90,120), clipped to [90,100)
		rec("d", "a", "d", 15, 5, 0),   // inside a
		rec("e", "j", "e", 200, 10, 0), // wholly outside the job
	}
	forest := spanForest(recs)
	roots := forest[7]
	if len(roots) != 1 || roots[0].rec.Name != "job" {
		t.Fatalf("roots of job 7 = %v", roots)
	}
	self := map[string]int64{}
	selfByName(roots[0], self)
	want := map[string]int64{"job": 40, "a": 25, "b": 30, "c": 30, "d": 5, "e": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := unionNs([][2]int64{{30, 60}, {10, 40}, {90, 100}, {15, 20}}); got != 60 {
		t.Errorf("union = %d, want 60", got)
	}

	// Sequential declared layers that cover the job leave 1% of it
	// unaccounted, and their self times are the layer metrics.
	recs = []span.Record{
		rec("j", "", "job", 0, 1000, 1),
		rec("s", "j", "setup", 0, 100, 0),
		rec("x", "j", "mdp.explore", 100, 400, 0),
		rec("y", "j", "core.chain", 500, 490, 0),
	}
	roots = spanForest(recs)[1]
	layers := jobLayers(roots, jobResult{layers: map[string]float64{"mdp.states": 800}})
	if u := layers["layers.unaccounted_frac"]; math.Abs(u-0.01) > 1e-12 {
		t.Errorf("unaccounted frac = %v, want 0.01", u)
	}
	if u := layers["layers.unaccounted_frac"]; u > unaccountedTolerance {
		t.Errorf("a job within tolerance fails the layer-sum check: %v", u)
	}
	if got := layers["mdp.explore.s"]; got != 400e-9 {
		t.Errorf("mdp.explore.s = %v, want 4e-7", got)
	}
	if got := layers["mdp.explore.states_per_s"]; math.Abs(got-2e9) > 1 {
		t.Errorf("mdp.explore.states_per_s = %v, want 2e9", got)
	}
}

// TestLayerSumIgnoresUndeclaredSpans checks that a span no declared
// metric reports does not count as accounted time, however much of the
// job it covers, so such a job fails the layer-sum check.
func TestLayerSumIgnoresUndeclaredSpans(t *testing.T) {
	recs := []span.Record{
		rec("j", "", "job", 0, 1000, 1),
		rec("s", "j", "setup", 0, 100, 0),
		rec("w", "j", "fabric.wait", 100, 880, 0),
		rec("c", "j", "check", 980, 20, 0),
	}
	u := jobLayers(spanForest(recs)[1], jobResult{})["layers.unaccounted_frac"]
	if math.Abs(u-0.88) > 1e-12 {
		t.Errorf("unaccounted frac = %v, want 0.88", u)
	}
	if u <= unaccountedTolerance {
		t.Error("a job whose time falls outside every declared layer passes the layer-sum check")
	}
	if u := jobLayers(nil, jobResult{})["layers.unaccounted_frac"]; u != 1 {
		t.Errorf("a job with no root span: unaccounted frac = %v, want 1", u)
	}
}

// TestLayerSumCountsWorkerSpans checks that the fabric workers' rpc,
// lease, chunk and lease.wait spans account for the coordinator wait,
// the workers' own spans placed on the job's clock by their wall starts.
func TestLayerSumCountsWorkerSpans(t *testing.T) {
	recs := []span.Record{
		rec("j", "", "job", 0, 1000, 1),
		rec("s", "j", "setup", 0, 100, 0),
		rec("f", "j", "fabric.wait", 100, 800, 0),
		rec("m", "j", "sim.merge.finalize", 900, 100, 0),
		rec("w", "", "worker", 100, 900, 1),
		rec("l", "w", "rpc.lease", 100, 100, 0),
		rec("r", "w", "rpc.result", 700, 100, 0),
	}
	// The job starts at wall time 5000 on its tracer's clock 0; the
	// workers' tracer started elsewhere, so its MonoNs values are
	// ignored.
	for i := range recs {
		recs[i].StartUnixNs = 5000 + recs[i].MonoNs
	}
	worker := []span.Record{
		{ID: "wl", Name: "worker.lease", StartUnixNs: 5200, MonoNs: 99999, DurNs: 450},
		{ID: "c1", Parent: "wl", Name: "chunk", StartUnixNs: 5200, MonoNs: 99999, DurNs: 300},
		{ID: "c2", Parent: "wl", Name: "chunk", StartUnixNs: 5400, MonoNs: 99999, DurNs: 200},
		{ID: "lw", Name: "lease.wait", StartUnixNs: 5800, MonoNs: 99999, DurNs: 50},
	}
	layers := jobLayers(spanForest(recs)[1], jobResult{workerSpans: worker})
	// Covered: [0,100) setup, [100,200) lease, [200,650) worker.lease,
	// [700,800) result, [800,850) lease.wait, [900,1000) finalize.
	if u := layers["layers.unaccounted_frac"]; math.Abs(u-0.1) > 1e-12 {
		t.Errorf("unaccounted frac = %v, want 0.1", u)
	}
	if got := layers["fabric.worker.lease_self_s"]; math.Abs(got-50e-9) > 1e-18 {
		t.Errorf("fabric.worker.lease_self_s = %v, want 5e-8", got)
	}
	if got := layers["sim.chunk.busy_s"]; math.Abs(got-500e-9) > 1e-18 {
		t.Errorf("sim.chunk.busy_s = %v, want 5e-7", got)
	}
	if got := layers["fabric.worker.lease_wait_s"]; math.Abs(got-50e-9) > 1e-18 {
		t.Errorf("fabric.worker.lease_wait_s = %v, want 5e-8", got)
	}
}

func TestRPCLayers(t *testing.T) {
	recs := []span.Record{
		rec("w1", "", "worker", 0, 1000, 3),
		rec("l1", "w1", "rpc.lease", 0, 100, 0),
		rec("r1", "w1", "rpc.result", 500, 300, 0),
		rec("l2", "w1", "rpc.lease", 900, 100, 0),
		rec("s1", "", "serve.result", 550, 200, 3),
	}
	recs[2].Attrs = []span.Attr{span.Int64("bytes", 640), span.Int("status", 200)}
	recs[1].Attrs = []span.Attr{span.Int("status", 200)}
	recs[3].Attrs = []span.Attr{span.Int("status", 503)}
	layers := jobLayers(spanForest(recs)[3], jobResult{chunks: 4})
	want := map[string]float64{
		"fabric.rpc.lease.count":       2,
		"fabric.rpc.result.count":      1,
		"fabric.rpc.result.p99_us":     0.3,
		"fabric.rpcs_per_chunk":        0.75,
		"sim.envelope.bytes_per_chunk": 160,
		"fabric.worker.rpc_frac":       0.5,
		"fabric.http_errors":           1,
		"fabric.serve.result.busy_s":   200e-9,
	}
	for k, v := range want {
		if math.Abs(layers[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, layers[k], v)
		}
	}
}

func TestGateRejectsCorruptedAnswer(t *testing.T) {
	for _, d := range workloadDecls {
		good := golden[d.Name][0]
		if err := checkAnswer(d.Name, 1, good); err != nil {
			t.Errorf("%s: recorded answer rejected: %v", d.Name, err)
		}
		i := strings.IndexAny(good, "0123456789")
		bad := good[:i] + string('0'+(good[i]-'0'+1)%10) + good[i+1:]
		if err := checkAnswer(d.Name, 1, bad); err == nil {
			t.Errorf("%s: corrupted answer %q accepted", d.Name, bad)
		}
	}
	// A Monte Carlo answer whose estimate matches but whose checkpoint
	// digest differs, as when one trial ends differently, is rejected.
	good := golden["mc-steady"][0]
	i := strings.LastIndex(good, "checkpoint=") + len("checkpoint=")
	if i < len("checkpoint=") {
		t.Fatalf("recorded mc-steady answer %q carries no checkpoint digest", good)
	}
	flip := "0"
	if good[i] == '0' {
		flip = "1"
	}
	if bad := good[:i] + flip + good[i+1:]; checkAnswer("mc-steady", 1, bad) == nil {
		t.Errorf("answer with a corrupted checkpoint digest %q accepted", bad)
	}
	if err := checkAnswer("mc-steady", seedPool+1, golden["mc-steady"][0]); err == nil {
		t.Error("an answer for a job seed outside the pool was accepted")
	}
}

func TestJobSeedsRepeatable(t *testing.T) {
	a, b := jobSeeds(5), jobSeeds(5)
	seen := map[int64]bool{}
	for range seedPool {
		x := a()
		if x != b() || x < 1 || x > seedPool || seen[x] {
			t.Fatalf("job seed %d not a repeatable draw from the pool", x)
		}
		seen[x] = true
	}
}

// TestFabricGoldenIsRunnerEstimate checks that the recorded fabric
// answers are what Runner.Estimate prints for the same spec.
func TestFabricGoldenIsRunnerEstimate(t *testing.T) {
	line, err := workloads["fabric-loopback"].answer(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer("fabric-loopback", 2, line); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs one job of every workload
// untraced and one pair traced, and checks each run reports exactly the
// declared metrics, all finite, with every answer correct.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, d := range workloadDecls {
		for _, traced := range []bool{false, true} {
			res, _, err := measure(context.Background(), workloads[d.Name], runOpts{seed: 1, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", d.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", d.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%t: %d metrics, want %d", d.Name, traced, len(res.Metrics), len(decls))
			}
			for _, m := range decls {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v, ok=%t", d.Name, traced, m.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", d.Name, m.Name, v.Value)
				}
			}
		}
	}
}
