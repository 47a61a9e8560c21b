package sim

// Metrics is the engine's telemetry hook: RunParallel reports every
// committed chunk's trials, every quarantine, and every chunk and
// checkpoint event of a run through it when ParallelOptions.Metrics is
// non-nil. obs.NewSimMetrics returns the standard implementation (the
// match is structural; neither package imports the other).
//
// Trials are reported a chunk at a time: the engine buffers each chunk's
// outcomes in chunk-local arrays (plain stores, no shared-memory traffic)
// and flushes them with one TrialBatchDone at chunk commit, timed at
// chunk granularity: a call per trial, each with a clock read, cut the
// trial rate by about 15%.
//
// Contract:
//
//   - Implementations must be safe for concurrent use: the methods are
//     called from worker goroutines.
//   - Implementations must not allocate or block — they sit on the
//     engine's worker loop. Atomic counters and fixed-bucket histograms
//     qualify; logging and channels do not.
//   - The hook observes, never steers: returning is its only effect on
//     the run, and the estimate is bit-identical with or without it.
//   - The signatures use only builtin types, preserving the structural
//     (no-import) match with implementations such as obs.SimMetrics.
//
// When the field is nil the engine's hot path pays exactly one nil check
// per trial and allocates nothing — guarded by TestMetricsAddZeroAllocs
// and BenchmarkMetricsOverhead.
type Metrics interface {
	// TrialBatchDone reports one committed chunk: trials successfully
	// completed, how many reached the target, each trial's step count
	// (events, in trial order), the reach times of the reached trials
	// (reachTimes, in trial order), and the chunk's total wall-clock
	// seconds. Quarantined trials are reported through TrialQuarantined
	// and TrialStalled instead, and a chunk abandoned by first-error-wins
	// cancellation reports nothing (it is not part of the estimate
	// either). The slices are engine-owned and valid only for the
	// duration of the call.
	TrialBatchDone(trials, reached int, events []int64, reachTimes []float64, seconds float64)
	// TrialQuarantined reports a panicking trial excluded from the
	// estimate.
	TrialQuarantined(trial int)
	// TrialStalled reports a trial abandoned by the per-trial watchdog
	// (wall-clock budget exceeded) and excluded from the estimate.
	TrialStalled(trial int)
	// ChunkActive moves the in-flight chunk count: +1 when a worker
	// claims a chunk, -1 when it finishes or abandons it.
	ChunkActive(delta int)
	// ChunkDone reports one committed chunk and its trial count.
	ChunkDone(chunk, trials int)
	// TrialsRestored reports trials restored from a resume token rather
	// than re-run (at most once per run, before workers start).
	TrialsRestored(n int)
	// CheckpointSaved reports one successful checkpoint-sink call.
	CheckpointSaved()
}

// SpanHooks is the engine's chunk-lifecycle tracing seam
// (ParallelOptions.SpanHooks): one call when a worker claims a chunk,
// one when the chunk commits or is abandoned — never anything per
// trial. The standard implementation is span.ChunkSpans (the match is
// structural; neither package imports the other, like Metrics above).
//
// Contract: ChunkStart is called from worker goroutines and must be
// safe for concurrent use; the returned func is called exactly once,
// from the same goroutine, with the chunk's successfully observed and
// quarantined trial counts (both lower than the chunk's trial count
// when the chunk was abandoned mid-range). Like Metrics, the hook
// observes only. When the field is nil the engine pays one nil check
// per chunk and allocates nothing — guarded by BenchmarkSpanOverhead.
type SpanHooks interface {
	ChunkStart(chunk, trials int) func(completed, quarantined int)
}
