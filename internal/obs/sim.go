package obs

// SimMetrics is the bridge between the parallel Monte Carlo engine and the
// metrics registry: it implements the sim package's Metrics hook
// (structurally — neither package imports the other) and fans each engine
// event out to named instruments, all of them allocation-free on the
// per-trial path.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Default bucket layouts. Trial step counts and reach times are
// geometric (powers of two) because trial cost under adversarial policies
// is heavy-tailed; wall-times use decade buckets from 1µs to 10s.
var (
	StepBounds    = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
	SecondsBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	TimeBounds    = []float64{1, 2, 4, 8, 13, 16, 32, 63, 128, 256, 1024}
)

// SimMetrics receives the telemetry stream of one or more parallel runs
// and maintains the registry instruments behind the live progress display.
// All methods are safe for concurrent use from worker goroutines and
// perform no allocation — the engine may call them once per trial without
// perturbing the workload.
type SimMetrics struct {
	total atomic.Int64 // trial budget across all phases, for ETA
	start time.Time

	trials      *Counter // trials completed in this process (excludes restored)
	restored    *Counter // trials restored from a resume token
	reached     *Counter // completed trials that hit the target
	quarantined *Counter // panicking trials excluded from estimates
	stalled     *Counter // watchdog-abandoned trials excluded from estimates
	chunks      *Counter // completed chunks
	inflight    *Gauge   // chunks currently being executed
	checkpoints *Counter // checkpoint sink invocations that succeeded
	lastCkNs    atomic.Int64

	artRetries   *Counter // retried artifact writes
	artFallbacks *Counter // loads that fell back to an older generation
	artCorrupt   *Counter // artifact files that failed validation
	artFallbackG *Gauge   // generation the last fallback load came from

	steps     *Histogram // events per completed trial
	seconds   *Histogram // wall-clock seconds per completed trial
	reachTime *Histogram // ReachedAt of trials that hit the target
}

// NewSimMetrics registers the simulation instruments (sim.* names) in reg
// and returns the hook to hand to sim.ParallelOptions.Metrics. total is
// the overall trial budget the progress display measures ETA against; use
// AddBudget for multi-phase runs whose budget grows as phases are planned.
func NewSimMetrics(reg *Registry, total int) *SimMetrics {
	m := &SimMetrics{
		start:       time.Now(),
		trials:      reg.Counter("sim.trials_completed"),
		restored:    reg.Counter("sim.trials_restored"),
		reached:     reg.Counter("sim.trials_reached"),
		quarantined: reg.Counter("sim.trials_quarantined"),
		stalled:     reg.Counter("sim.trials_stalled"),
		chunks:      reg.Counter("sim.chunks_completed"),
		inflight:    reg.Gauge("sim.chunks_inflight"),
		checkpoints: reg.Counter("sim.checkpoints_saved"),

		artRetries:   reg.Counter("sim.artifact_retries"),
		artFallbacks: reg.Counter("sim.artifact_fallbacks"),
		artCorrupt:   reg.Counter("sim.artifacts_corrupt"),
		artFallbackG: reg.Gauge("sim.artifact_fallback_generation"),
		steps:        reg.Histogram("sim.trial_steps", StepBounds...),
		seconds:      reg.Histogram("sim.trial_seconds", SecondsBounds...),
		reachTime:    reg.Histogram("sim.reach_time", TimeBounds...),
	}
	m.total.Store(int64(total))
	return m
}

// AddBudget grows the total trial budget the ETA is computed against.
func (m *SimMetrics) AddBudget(trials int) { m.total.Add(int64(trials)) }

// TrialBatchDone records one committed chunk of trials at once: bucket
// counts and moment sums are accumulated locally and each instrument is
// touched once per chunk instead of once per trial. seconds is the
// chunk's total wall-clock cost; the per-trial seconds histogram receives
// the chunk mean for each trial, since the engine reads no clock per
// trial.
func (m *SimMetrics) TrialBatchDone(trials, reached int, events []int64, reachTimes []float64, seconds float64) {
	if trials <= 0 {
		return
	}
	m.trials.Add(int64(trials))
	m.steps.ObserveIntBatch(events)
	m.seconds.ObserveN(seconds/float64(trials), int64(trials))
	if reached > 0 {
		m.reached.Add(int64(reached))
		m.reachTime.ObserveBatch(reachTimes)
	}
}

// TrialQuarantined records one panicking trial excluded from the estimate.
func (m *SimMetrics) TrialQuarantined(trial int) { m.quarantined.Inc() }

// TrialStalled records one trial abandoned by the per-trial watchdog and
// excluded from the estimate.
func (m *SimMetrics) TrialStalled(trial int) { m.stalled.Inc() }

// ArtifactRetried records one retried checkpoint/manifest write (the
// sim.ArtifactMetrics hook, matched structurally like sim.Metrics).
func (m *SimMetrics) ArtifactRetried() { m.artRetries.Inc() }

// ArtifactFallback records a load that fell back to an older artifact
// generation, and remembers which one on a gauge.
func (m *SimMetrics) ArtifactFallback(generation int) {
	m.artFallbacks.Inc()
	m.artFallbackG.Set(int64(generation))
}

// ArtifactCorrupt records one artifact file that failed validation
// (checksum mismatch, truncation, garbage).
func (m *SimMetrics) ArtifactCorrupt() { m.artCorrupt.Inc() }

// ChunkActive moves the in-flight chunk gauge (+1 on claim, -1 on
// completion or abandonment).
func (m *SimMetrics) ChunkActive(delta int) { m.inflight.Add(int64(delta)) }

// ChunkDone records one committed chunk of the given trial count.
func (m *SimMetrics) ChunkDone(chunk, trials int) { m.chunks.Inc() }

// TrialsRestored records trials restored from a resume token rather than
// re-run.
func (m *SimMetrics) TrialsRestored(n int) { m.restored.Add(int64(n)) }

// CheckpointSaved records one successful checkpoint-sink invocation and
// stamps the checkpoint age clock.
func (m *SimMetrics) CheckpointSaved() {
	m.checkpoints.Inc()
	m.lastCkNs.Store(time.Now().UnixNano())
}

// ProgressSnapshot is one point-in-time reading of a sweep: what a
// progress line renders and what a manifest "progress" event records.
// Durations are nanoseconds for stable JSON.
type ProgressSnapshot struct {
	ElapsedNs   int64 `json:"elapsed_ns"`
	Done        int64 `json:"trials_done"`
	Restored    int64 `json:"trials_restored,omitempty"`
	Total       int64 `json:"trials_total"`
	Reached     int64 `json:"trials_reached"`
	Quarantined int64 `json:"trials_quarantined,omitempty"`
	Stalled     int64 `json:"trials_stalled,omitempty"`
	InFlight    int64 `json:"chunks_inflight"`
	// TrialsPerSec is the mean completion rate since the run started.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// ETANs estimates the remaining wall-clock at the current rate; 0
	// when unknown (no completed trials yet, or budget already covered).
	ETANs int64 `json:"eta_ns,omitempty"`
	// ReachFrac ± ReachHalf is the running reach-probability estimate
	// with its 95% Wilson half-width, over the trials completed so far in
	// this process (restored trials carry no per-trial outcomes).
	ReachFrac float64 `json:"reach_frac"`
	ReachHalf float64 `json:"reach_half"`
	// MeanReach ± MeanReachHalf is the running mean reach time with its
	// 95% normal-approximation half-width (stats.MeanCIFromMoments over
	// the lock-free moment sums).
	MeanReach     float64 `json:"mean_reach_time"`
	MeanReachHalf float64 `json:"mean_reach_half"`
	// CheckpointAgeNs is the time since the last persisted checkpoint;
	// -1 when no checkpoint has been saved.
	CheckpointAgeNs int64 `json:"checkpoint_age_ns"`
}

// Progress assembles a snapshot from the current instrument values. It is
// a cold-path read: call it from a reporter tick, not per trial.
func (m *SimMetrics) Progress() ProgressSnapshot {
	now := time.Now()
	elapsed := now.Sub(m.start)
	s := ProgressSnapshot{
		ElapsedNs:       int64(elapsed),
		Done:            m.trials.Value(),
		Restored:        m.restored.Value(),
		Total:           m.total.Load(),
		Reached:         m.reached.Value(),
		Quarantined:     m.quarantined.Value(),
		Stalled:         m.stalled.Value(),
		InFlight:        m.inflight.Value(),
		CheckpointAgeNs: -1,
	}
	if ck := m.lastCkNs.Load(); ck > 0 {
		s.CheckpointAgeNs = now.UnixNano() - ck
	}
	if secs := elapsed.Seconds(); secs > 0 && s.Done > 0 {
		s.TrialsPerSec = float64(s.Done) / secs
		if remaining := s.Total - s.Done - s.Restored; remaining > 0 {
			s.ETANs = int64(float64(remaining) / s.TrialsPerSec * float64(time.Second))
		}
	}
	p := stats.Proportion{Successes: int(s.Reached), Trials: int(s.Done)}
	if est, err := p.Estimate(); err == nil {
		s.ReachFrac = est
		s.ReachHalf, _ = p.WilsonHalfWidth(1.96)
	}
	rt := m.reachTime.Snapshot()
	if mean, half, err := stats.MeanCIFromMoments(rt.Count, rt.Sum, rt.SumSq, 1.96); err == nil || rt.Count > 0 {
		s.MeanReach, s.MeanReachHalf = mean, half
	}
	return s
}

// String renders the snapshot as the one-line form the -progress flag
// emits.
func (s ProgressSnapshot) String() string {
	var b strings.Builder
	covered := s.Done + s.Restored
	fmt.Fprintf(&b, "%d/%d trials", covered, s.Total)
	if s.Total > 0 {
		fmt.Fprintf(&b, " (%.1f%%)", 100*float64(covered)/float64(s.Total))
	}
	if s.Restored > 0 {
		fmt.Fprintf(&b, " [%d restored]", s.Restored)
	}
	fmt.Fprintf(&b, " | %.0f trials/s", s.TrialsPerSec)
	if s.ETANs > 0 {
		fmt.Fprintf(&b, " | ETA %v", time.Duration(s.ETANs).Round(time.Second))
	}
	if s.Done > 0 {
		fmt.Fprintf(&b, " | reached %.4f ±%.4f", s.ReachFrac, s.ReachHalf)
	}
	if s.Reached > 0 {
		fmt.Fprintf(&b, " | mean t %.2f ±%.2f", s.MeanReach, s.MeanReachHalf)
	}
	if s.Quarantined > 0 {
		fmt.Fprintf(&b, " | quarantined %d", s.Quarantined)
	}
	if s.Stalled > 0 {
		fmt.Fprintf(&b, " | stalled %d", s.Stalled)
	}
	fmt.Fprintf(&b, " | in-flight %d", s.InFlight)
	if s.CheckpointAgeNs >= 0 {
		fmt.Fprintf(&b, " | checkpoint %v ago", time.Duration(s.CheckpointAgeNs).Round(100*time.Millisecond))
	}
	return b.String()
}
