// Package fabric is the distributed trial fabric: a coordinator that
// owns one Monte Carlo job (model + estimator + seed + trial budget)
// and carves its trial range into chunk-aligned leases, plus workers
// that pull leases over HTTP/JSON, run them through the compiled
// parallel engine (internal/sim), and stream back CRC-checked
// checkpoint-envelope results.
//
// The protocol is fault-first, in the spirit of the paper's
// quantification over all adversaries — here the adversary is the
// cluster itself:
//
//   - Leases expire. A worker holds a lease only as long as it
//     heartbeats; a SIGKILLed or partitioned worker's chunks return to
//     the pending pool and are reassigned to the next worker that asks.
//
//   - Results are idempotent. The first valid result per chunk wins:
//     duplicate deliveries, late deliveries from expired leases, and
//     reassigned-then-returned chunks are dropped without double
//     counting, so retrying a result upload is always safe.
//
//   - Transport is retried. Every worker RPC runs under
//     fault.RetryPolicy.DoCtx — exponential backoff, full jitter,
//     prompt cancellation.
//
//   - The frontier is durable. The coordinator's merge frontier is a
//     sim.Checkpoint persisted through the sim.ArtifactStore (CRC'd,
//     generation-rotated, atomic+durable writes), so a SIGKILLed
//     coordinator resumes bit-identically.
//
// Bit-identity is the invariant that makes all of this safe to use:
// every trial's RNG is a pure function of (seed, trial index), chunk
// boundaries are fixed, and the coordinator merges chunk accumulators
// in index order — so a 3-worker (or 50-worker) run, with any pattern
// of crashes and reassignment, produces output byte-identical to a
// single-process run of the same job.
package fabric

import (
	"errors"

	"repro/internal/sim"
)

// Estimator names accepted by JobSpec.Estimator.
const (
	// EstimatorReachProb estimates P[target reached within
	// JobSpec.Within] (stats.Proportion).
	EstimatorReachProb = "reachprob"
	// EstimatorTimeToTarget summarizes the time to reach the target
	// (stats.Summary); a trial that never reaches it fails the job, as in
	// the single-process engine.
	EstimatorTimeToTarget = "timetotarget"
)

// ErrQuorumLost reports a coordinator that gave up waiting: no worker
// made contact for the configured quorum timeout while chunks were
// still missing. The merge frontier persisted so far is the resume
// token.
var ErrQuorumLost = errors.New("fabric: worker quorum lost")

// ErrJobMismatch reports a result or restored frontier that does not
// belong to the coordinator's job (different kind, seed, trial budget
// or chunking). Merging it would corrupt the estimate, so it is
// refused.
var ErrJobMismatch = errors.New("fabric: result does not match this job")

// ErrWorkerQuarantined reports a worker the coordinator has blacklisted
// for too many corrupt uploads (CoordinatorOptions.QuarantineCorrupt):
// it will be granted no further leases and should exit.
var ErrWorkerQuarantined = errors.New("fabric: worker quarantined by coordinator")

// WorkerHeader carries the worker's ID on every RPC, so the coordinator
// can attribute a result whose *body* failed checksum or JSON decoding
// (and therefore names no worker) for corrupt-upload health accounting.
const WorkerHeader = "X-Fabric-Worker"

// JobSpec is the complete, serializable description of one distributed
// job. It is what the coordinator sends a worker inside a lease
// response; two processes holding equal specs reconstruct bit-identical
// models, policies and trial streams.
type JobSpec struct {
	// Model selects the scenario: "dining" (Lehmann–Rabin ring) or
	// "election" (leader election).
	Model string `json:"model"`
	// N is the model size (ring size / process count).
	N int `json:"n"`
	// Policy selects the adversary: for dining one of slowest, random,
	// spiteful, paced:<alpha>; for election only slowest. Empty means
	// slowest.
	Policy string `json:"policy,omitempty"`
	// Estimator is EstimatorReachProb or EstimatorTimeToTarget.
	Estimator string `json:"estimator"`
	// Within is the reach-probability deadline (EstimatorReachProb only).
	Within float64 `json:"within,omitempty"`
	// Trials is the total trial budget sharded across workers.
	Trials int `json:"trials"`
	// Seed is the root seed; per-trial streams derive from (Seed, trial
	// index) alone, which is what makes distribution invisible.
	Seed int64 `json:"seed"`
	// MaxEvents / MaxTime bound each trial (0 = engine defaults).
	MaxEvents int     `json:"max_events,omitempty"`
	MaxTime   float64 `json:"max_time,omitempty"`
	// MaxPanics is the per-range quarantine budget handed to the engine.
	MaxPanics int `json:"max_panics,omitempty"`
}

// Metrics observes coordinator events. It is matched structurally
// (obs.FabricMetrics implements it; neither package imports the other).
// All methods are cold-path: per lease, per chunk, per result, per RPC,
// per sweep — never per trial.
type Metrics interface {
	LeaseGranted(chunks int)
	LeaseExpired(chunks int)
	ResultAccepted(chunks int)
	DuplicateChunks(n int)
	ResultRejected()
	HeartbeatSeen()
	WorkersLive(n int)
	// LeaseWait records how long one chunk sat pending (since job start
	// or its last lease expiry) before being granted — one call per
	// chunk per grant.
	LeaseWait(seconds float64)
	// RPCServed records one fabric RPC handled, with its route
	// ("lease", "heartbeat", "result", "status") and service time.
	RPCServed(route string, seconds float64)
	// ChunkDuration records the mean per-chunk grant-to-result
	// turnaround of one settled lease, weighted by its chunk count.
	ChunkDuration(seconds float64, chunks int)
	// HedgeIssued records one hedged lease: a speculative duplicate of
	// a straggling lease's range, granted before the original expired.
	HedgeIssued()
	// WorkerQuarantined records one worker blacklisted for misbehavior.
	WorkerQuarantined()
	// RPCShed records one RPC refused with 429 under admission control.
	RPCShed()
}

// Wire messages. Everything crosses the network as JSON; result bodies
// additionally travel inside the sim artifact envelope so a corrupted
// or truncated upload is detected by checksum on receipt, exactly like
// a corrupted checkpoint file at rest.

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is a time-bounded claim on a contiguous chunk range.
type Lease struct {
	ID string `json:"id"`
	// Chunks is the half-open chunk range leased, in the index space of
	// sim.NumChunks(job.Trials).
	Chunks sim.ChunkRange `json:"chunks"`
	// TTLMs is the lease lifetime in milliseconds; heartbeats extend it.
	TTLMs int64 `json:"ttl_ms"`
}

// LeaseResponse carries a lease (with the job spec), a back-off hint
// when everything is currently leased out, or the completion signal.
type LeaseResponse struct {
	// Done reports the job complete: the worker should exit.
	Done bool `json:"done,omitempty"`
	// None reports nothing grantable right now (all remaining chunks are
	// leased); retry after RetryMs.
	None    bool  `json:"none,omitempty"`
	RetryMs int64 `json:"retry_ms,omitempty"`
	// Quarantined tells the worker it is blacklisted: no lease will
	// ever be granted to it again, so it should exit rather than poll.
	Quarantined bool `json:"quarantined,omitempty"`
	// Job and Lease are set when a lease is granted.
	Job   *JobSpec `json:"job,omitempty"`
	Lease *Lease   `json:"lease,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// HeartbeatResponse acknowledges a renewal. Expired tells the worker
// its lease is gone (reassigned); it should abandon the range rather
// than waste cycles racing the new holder.
type HeartbeatResponse struct {
	OK      bool `json:"ok"`
	Expired bool `json:"expired,omitempty"`
}

// ResultPayload is the payload a worker wraps in a checksummed envelope
// (sim.EncodeEnvelope) and posts on lease completion: the checkpoint
// fragment covering exactly the leased chunk range, carrying the job's
// identity fields for validation on receipt.
type ResultPayload struct {
	Worker     string          `json:"worker"`
	Lease      string          `json:"lease"`
	Checkpoint *sim.Checkpoint `json:"checkpoint"`
}

// ResultResponse reports what a result delivery contributed.
type ResultResponse struct {
	// Accepted is the number of fresh chunk records merged into the
	// frontier; Duplicates is how many were dropped because an earlier
	// valid result already covered them.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// Done reports the job complete after this delivery.
	Done bool `json:"done,omitempty"`
}

// Status is the coordinator's progress snapshot (GET /v1/status).
type Status struct {
	Trials        int  `json:"trials"`
	Chunks        int  `json:"chunks"`
	ChunksDone    int  `json:"chunks_done"`
	ChunksLeased  int  `json:"chunks_leased"`
	ChunksPending int  `json:"chunks_pending"`
	WorkersLive   int  `json:"workers_live"`
	Complete      bool `json:"complete"`

	LeasesGranted     int64 `json:"leases_granted"`
	LeasesExpired     int64 `json:"leases_expired"`
	ChunksReassigned  int64 `json:"chunks_reassigned"`
	DuplicatesDropped int64 `json:"duplicates_dropped"`
	ResultsRejected   int64 `json:"results_rejected"`

	HedgesIssued       int64 `json:"hedges_issued"`
	WorkersQuarantined int64 `json:"workers_quarantined"`
	RPCsShed           int64 `json:"rpcs_shed"`
	// Workers is the per-worker health table, sorted by worker ID.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// WorkerStatus is one worker's health snapshot inside Status.
type WorkerStatus struct {
	Worker    string `json:"worker"`
	Granted   int64  `json:"granted"`
	Delivered int64  `json:"delivered"`
	Expired   int64  `json:"expired"`
	// Corrupt counts uploads from this worker that failed checksum,
	// JSON decoding, or job-identity validation.
	Corrupt     int64 `json:"corrupt,omitempty"`
	Quarantined bool  `json:"quarantined,omitempty"`
}
