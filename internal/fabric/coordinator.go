package fabric

// The coordinator: owns one job, leases chunk ranges to workers,
// verifies and merges their results first-valid-wins, persists the
// merge frontier durably, and declares completion. All state lives
// behind one mutex; every handler is a short critical section (the only
// I/O inside the lock is the frontier save, which is itself retried and
// cheap at chunk granularity).
//
// Lease expiry is lazy plus swept: every request path first expires
// lapsed leases against the injected clock, and the Wait loop sweeps on
// a timer so reassignment does not depend on request traffic. Both run
// through fault.Clock, so tests drive expiry with a FakeClock instead
// of sleeping.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// stateKey is the label the frontier is filed under in the persisted
// CheckpointSet (the ArtifactStore stores sets, keyed by stage).
const stateKey = "fabric"

// maxResultBody bounds one result upload; a lease is a handful of
// chunk accumulators, far below this.
const maxResultBody = 32 << 20

// chunkState tracks one chunk through the lease lifecycle.
type chunkState uint8

const (
	chunkPending chunkState = iota
	chunkLeased
	chunkDone
)

// CoordinatorOptions configures a Coordinator. The zero value works:
// 4-chunk leases, 3s TTL, no persistence, wall clock, no metrics, never
// give up on quorum.
type CoordinatorOptions struct {
	// LeaseChunks is how many chunks one lease covers (default 4 — 256
	// trials; coarse enough to amortize an RPC, fine enough that losing
	// a worker loses little).
	LeaseChunks int
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// 3s). Heartbeats extend it by the same amount.
	LeaseTTL time.Duration
	// StatePath, when set, persists the merge frontier through Store
	// after every accepted result, making the coordinator crash-resumable.
	StatePath string
	// Store is the durable artifact layer; nil means a default
	// sim.ArtifactStore. Used only when StatePath is set.
	Store *sim.ArtifactStore
	// QuorumTimeout, when positive, makes Wait give up with
	// ErrQuorumLost after that long with no worker contact while chunks
	// are missing. Zero waits forever (until ctx cancels).
	QuorumTimeout time.Duration
	// Clock is the lease/quorum time source; nil means the wall clock.
	Clock fault.Clock
	// Metrics, when non-nil, observes leases, results and liveness.
	Metrics Metrics
	// Tracer, when non-nil, records the coordinator's side of the job
	// trace: a root "job" span, one "lease" span per grant (ended at
	// delivery or expiry), "merge" spans per accepted fragment,
	// "serve.*" spans per RPC handled, and a closing "finalize" span.
	// Trace context rides the RPC response headers so workers join the
	// same trace. Nil disables tracing at the cost of nil checks.
	Tracer *span.Tracer

	// Hedge enables hedged leases: when every pending chunk is leased
	// out and an idle worker asks for work, a lease whose age exceeds
	// 1.5 times the p99 of observed lease completion times (once three
	// leases have completed) is speculatively re-issued, once, to the
	// idle worker as a duplicate ("hedge") lease before its TTL
	// expires. The idempotent first-valid-wins merge makes the
	// duplicate free: whichever copy lands first counts, the other is
	// dropped. This bounds stragglers — a slow-dripping worker no
	// longer holds job completion hostage for a full TTL.
	Hedge bool

	// QuarantineCorrupt, when positive, blacklists a worker after that
	// many corrupt uploads (checksum, JSON, or identity failures):
	// its leases are revoked, no new lease is ever granted to it, and
	// lease responses tell it to exit.
	QuarantineCorrupt int

	// MaxInflightRPCs, when positive, sheds lease/heartbeat/result RPCs
	// beyond that many concurrently in flight with 429 + Retry-After
	// (GET /v1/status stays unshedded — it is the ops probe).
	MaxInflightRPCs int
}

func (o CoordinatorOptions) leaseChunks() int {
	if o.LeaseChunks <= 0 {
		return 4
	}
	return o.LeaseChunks
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return 3 * time.Second
	}
	return o.LeaseTTL
}

const (
	// hedgeFactor scales the p99 lease completion time into the age
	// past which a lease may be hedged.
	hedgeFactor = 1.5
	// hedgeMinSamples is how many completed leases must be observed
	// before any hedge fires: hedging off a cold p99 would just
	// duplicate everything.
	hedgeMinSamples = 3
	// maxLeasesPerWorker caps the leases one worker may hold at once:
	// the pull loop holds one, plus headroom for a lease expired
	// server-side that the worker is still finishing.
	maxLeasesPerWorker = 2
)

// lease is one outstanding claim.
type lease struct {
	id      string
	worker  string
	chunks  sim.ChunkRange
	expires time.Time
	granted time.Time  // grant instant, for turnaround metrics
	span    *span.Span // open "lease" span; nil when tracing is off
	// hedgeOf names the lease this one speculatively duplicates; empty
	// for a primary lease. hedged reports that a duplicate was already
	// spawned off this lease (one hedge per lease).
	hedgeOf string
	hedged  bool
}

// workerHealth is the coordinator's per-worker scorecard.
type workerHealth struct {
	granted   int64
	delivered int64
	expired   int64
	corrupt   int64

	quarantined bool
}

// Coordinator schedules one job across workers. Create with
// NewCoordinator, expose Handler() on a listener, then Wait for
// completion and Finalize for the estimate.
type Coordinator struct {
	job    JobSpec
	runner Runner
	opts   CoordinatorOptions
	clock  fault.Clock
	store  *sim.ArtifactStore

	mu        sync.Mutex
	template  *sim.Checkpoint // identity fields only; never mutated
	frontier  *sim.Checkpoint // template + accepted chunk/panic records
	chunks    []chunkState
	pending   []time.Time // per chunk: when it last became grantable
	leases    map[string]*lease
	nextLease int
	workers   map[string]time.Time // worker id -> last contact
	contact   time.Time            // last contact from any worker
	complete  bool
	done      chan struct{}

	jobSpan *span.Span // root trace span; nil when tracing is off

	granted, expired, reassigned, duplicates, rejected int64
	hedged, quarantined, shed                          int64

	// health is the per-worker scorecard feeding quarantine decisions.
	health map[string]*workerHealth
	// completions is a ring of observed lease grant→delivery times; its
	// p99 drives the hedge threshold. compIdx is the total recorded.
	completions []time.Duration
	compIdx     int

	// inflight counts fabric RPCs currently being handled, for
	// MaxInflightRPCs admission control (outside mu: the check must not
	// queue on the coordinator lock it protects).
	inflight atomic.Int64
}

// NewCoordinator builds the coordinator for job: constructs the runner,
// derives the checkpoint template (kind/seed/chunking) from an empty
// engine run, and — when opts.StatePath names an existing state file —
// restores the merge frontier from it, validating every record like a
// freshly delivered result.
func NewCoordinator(ctx context.Context, job JobSpec, opts CoordinatorOptions) (*Coordinator, error) {
	runner, err := NewRunner(job)
	if err != nil {
		return nil, err
	}
	job = runner.Spec() // defaults (e.g. policy) filled in
	template, err := runner.Template(ctx)
	if err != nil {
		return nil, fmt.Errorf("fabric: deriving job template: %w", err)
	}
	frontier := *template
	c := &Coordinator{
		job:      job,
		runner:   runner,
		opts:     opts,
		clock:    opts.Clock,
		store:    opts.Store,
		template: template,
		frontier: &frontier,
		chunks:   make([]chunkState, sim.NumChunks(job.Trials)),
		leases:   map[string]*lease{},
		workers:  map[string]time.Time{},
		health:   map[string]*workerHealth{},
		done:     make(chan struct{}),
	}
	if c.clock == nil {
		c.clock = fault.Wall
	}
	if c.store == nil {
		c.store = &sim.ArtifactStore{}
	}
	c.contact = c.clock.Now()
	c.pending = make([]time.Time, len(c.chunks))
	for i := range c.pending {
		c.pending[i] = c.contact
	}
	// The root span of the whole distributed run. Started before restore
	// so the restore merge parents under it; ended by Finalize. All span
	// calls are nil-safe, so an untraced coordinator pays nil checks only.
	c.jobSpan = opts.Tracer.Start("job", span.SpanContext{},
		span.Str("model", job.Model), span.Int("n", job.N), span.Str("policy", job.Policy),
		span.Str("estimator", job.Estimator), span.Int64("seed", job.Seed),
		span.Int("trials", job.Trials), span.Int("chunks", len(c.chunks)))
	if opts.StatePath != "" {
		if err := c.restore(); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.checkCompleteLocked()
	c.mu.Unlock()
	return c, nil
}

// Job returns the coordinator's job spec (defaults resolved).
func (c *Coordinator) Job() JobSpec { return c.job }

// restore loads the persisted frontier and adopts its chunks through
// the same validation path a network result takes.
func (c *Coordinator) restore() error {
	// Corrupt generations, if any, were already skipped by the store's
	// fallback scan (and reported via its metrics): they cost progress,
	// never correctness.
	cs, info, err := c.store.Load(c.opts.StatePath)
	if err != nil {
		return fmt.Errorf("fabric: restoring frontier: %w", err)
	}
	cp := cs[stateKey]
	if cp == nil {
		return nil
	}
	if _, _, err := c.accept(cp); err != nil {
		return fmt.Errorf("fabric: restoring frontier from %s: %w", info.Path, err)
	}
	return nil
}

// identityMismatch compares a delivered checkpoint's identity fields to
// the template's; the first disagreement is returned as a typed
// mismatch error (matching both ErrJobMismatch and
// sim.ErrCheckpointMismatch via the underlying MismatchError).
func (c *Coordinator) identityMismatch(cp *sim.Checkpoint) error {
	t := c.template
	var field string
	var want, got any
	switch {
	case cp.Version != t.Version:
		field, want, got = "version", t.Version, cp.Version
	case cp.Kind != t.Kind:
		field, want, got = "kind", t.Kind, cp.Kind
	case cp.Seed != t.Seed:
		field, want, got = "seed", t.Seed, cp.Seed
	case cp.Trials != t.Trials:
		field, want, got = "trials", t.Trials, cp.Trials
	case cp.ChunkSize != t.ChunkSize:
		field, want, got = "chunk_size", t.ChunkSize, cp.ChunkSize
	default:
		return nil
	}
	return fmt.Errorf("%w: %w", ErrJobMismatch, &sim.MismatchError{Field: field, Want: want, Got: got})
}

// accept merges a checkpoint fragment into the frontier,
// first-valid-wins per chunk. It validates identity and bounds before
// touching any state, so a bad fragment is rejected whole. Duplicate
// chunks (already done — late redelivery, or a reassigned lease whose
// original holder returned after all) are counted and dropped, which is
// exactly what makes delivery idempotent: however many times and in
// whatever order results arrive, each chunk's accumulator enters the
// merge once.
func (c *Coordinator) accept(cp *sim.Checkpoint) (accepted, duplicates int, err error) {
	sp := c.opts.Tracer.Start("merge", c.jobSpan.Context(), span.Int("chunks", len(cp.Chunks)))
	defer func() { sp.End(span.Int("accepted", accepted), span.Int("duplicates", duplicates)) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.identityMismatch(cp); err != nil {
		return 0, 0, err
	}
	for _, cr := range cp.Chunks {
		if cr.Index < 0 || cr.Index >= len(c.chunks) {
			return 0, 0, fmt.Errorf("%w: chunk index %d outside [0, %d)", ErrJobMismatch, cr.Index, len(c.chunks))
		}
	}
	fresh := make(map[int]bool, len(cp.Chunks))
	for _, cr := range cp.Chunks {
		if c.chunks[cr.Index] == chunkDone || fresh[cr.Index] {
			duplicates++
			continue
		}
		c.frontier.Chunks = append(c.frontier.Chunks, cr)
		c.chunks[cr.Index] = chunkDone
		fresh[cr.Index] = true
		accepted++
	}
	if accepted > 0 {
		// Panic records ride with their chunk: adopt only the ones whose
		// chunk was accepted from this fragment, so a duplicate delivery
		// cannot double-record a quarantined trial either.
		for _, pr := range cp.Panics {
			if fresh[pr.Trial/c.template.ChunkSize] {
				c.frontier.Panics = append(c.frontier.Panics, pr)
			}
		}
		if err := c.persistLocked(); err != nil {
			return accepted, duplicates, err
		}
		c.checkCompleteLocked()
	}
	return accepted, duplicates, nil
}

// persistLocked saves the frontier through the artifact store (atomic,
// durable, checksummed, generation-rotated). Called with mu held.
func (c *Coordinator) persistLocked() error {
	if c.opts.StatePath == "" {
		return nil
	}
	if err := c.store.Save(c.opts.StatePath, sim.CheckpointSet{stateKey: c.frontier}); err != nil {
		return fmt.Errorf("fabric: persisting frontier: %w", err)
	}
	return nil
}

// checkCompleteLocked flips the completion latch once every chunk is
// done. Called with mu held.
func (c *Coordinator) checkCompleteLocked() {
	if c.complete {
		return
	}
	for _, st := range c.chunks {
		if st != chunkDone {
			return
		}
	}
	c.complete = true
	close(c.done)
}

// touchLocked records contact from a worker. Called with mu held.
func (c *Coordinator) touchLocked(worker string, now time.Time) {
	if worker != "" {
		c.workers[worker] = now
	}
	c.contact = now
}

// expireLocked returns every lapsed lease's not-yet-done chunks to the
// pending pool. With hedging, a chunk goes back to pending only when no
// *other* live lease still covers it — the hedge (or the primary) keeps
// working the range, and double-granting it would just burn a third
// worker. Called with mu held.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		n := 0
		for i := l.chunks.Lo; i < l.chunks.Hi; i++ {
			if c.chunks[i] == chunkLeased && !c.chunkCoveredLocked(i, id) {
				c.chunks[i] = chunkPending
				c.pending[i] = now
				n++
			}
		}
		delete(c.leases, id)
		c.expired++
		c.reassigned += int64(n)
		c.healthLocked(l.worker).expired++
		if c.opts.Metrics != nil {
			c.opts.Metrics.LeaseExpired(n)
		}
		l.span.End(span.Str("outcome", "expired"), span.Int("reassigned", n))
	}
}

// chunkCoveredLocked reports whether any lease other than `except`
// still covers chunk i. Called with mu held.
func (c *Coordinator) chunkCoveredLocked(i int, except string) bool {
	for id, l := range c.leases {
		if id != except && l.chunks.Lo <= i && i < l.chunks.Hi {
			return true
		}
	}
	return false
}

// healthLocked returns (allocating on first sight) the worker's
// scorecard. Called with mu held.
func (c *Coordinator) healthLocked(worker string) *workerHealth {
	h := c.health[worker]
	if h == nil {
		h = &workerHealth{}
		c.health[worker] = h
	}
	return h
}

// recordCompletionLocked feeds one lease's grant→delivery time into the
// hedge threshold ring. Called with mu held.
func (c *Coordinator) recordCompletionLocked(d time.Duration) {
	const ringCap = 256
	if len(c.completions) < ringCap {
		c.completions = append(c.completions, d)
	} else {
		c.completions[c.compIdx%ringCap] = d
	}
	c.compIdx++
}

// hedgeThresholdLocked derives the lease age past which a hedge may
// fire: hedgeFactor × the p99 (nearest-rank) of observed completion
// times, once hedgeMinSamples completions exist. Called with mu held.
func (c *Coordinator) hedgeThresholdLocked() (time.Duration, bool) {
	if len(c.completions) < hedgeMinSamples {
		return 0, false
	}
	ds := append([]time.Duration(nil), c.completions...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := (len(ds)*99+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return time.Duration(float64(ds[idx]) * hedgeFactor), true
}

// hedgeCandidateLocked picks the oldest lease worth hedging for an idle
// worker: held by someone else, not already hedged, past the age
// threshold, and still covering at least one not-done chunk. Called
// with mu held.
func (c *Coordinator) hedgeCandidateLocked(worker string, now time.Time) *lease {
	thr, ok := c.hedgeThresholdLocked()
	if !ok {
		return nil
	}
	var best *lease
	for _, l := range c.leases {
		if l.worker == worker || l.hedged {
			continue
		}
		if now.Sub(l.granted) < thr {
			continue
		}
		live := false
		for i := l.chunks.Lo; i < l.chunks.Hi; i++ {
			if c.chunks[i] == chunkLeased {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		if best == nil || l.granted.Before(best.granted) {
			best = l
		}
	}
	return best
}

// liveWorkersLocked counts workers seen within twice the lease TTL.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	window := 2 * c.opts.leaseTTL()
	live := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= window {
			live++
		}
	}
	return live
}

// grant hands out the next lease: the first contiguous run of pending
// chunks, up to LeaseChunks long. When nothing is pending but leased
// chunks linger past the hedge threshold, an idle worker gets a hedge —
// a duplicate lease on the straggler's range. The returned SpanContext
// names the grant's "lease" span (zero when none was granted or tracing
// is off); the lease handler injects it into the response headers so
// the worker's spans parent under it.
func (c *Coordinator) grant(worker string) (LeaseResponse, span.SpanContext) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker, now)
	c.expireLocked(now)
	if c.complete {
		return LeaseResponse{Done: true}, span.SpanContext{}
	}
	if c.healthLocked(worker).quarantined {
		return LeaseResponse{None: true, Quarantined: true,
			RetryMs: c.opts.leaseTTL().Milliseconds()}, span.SpanContext{}
	}
	held := 0
	for _, l := range c.leases {
		if l.worker == worker {
			held++
		}
	}
	if held >= maxLeasesPerWorker {
		// Admission control: this worker already holds its fill.
		return LeaseResponse{None: true, RetryMs: c.opts.leaseTTL().Milliseconds()/2 + 1}, span.SpanContext{}
	}
	lo := -1
	for i, st := range c.chunks {
		if st == chunkPending {
			lo = i
			break
		}
	}
	if lo < 0 {
		if c.opts.Hedge {
			if victim := c.hedgeCandidateLocked(worker, now); victim != nil {
				return c.issueLocked(worker, victim.chunks, victim, now)
			}
		}
		// Everything remaining is leased out; the worker should ask again
		// after a fraction of the TTL (by then either a result landed or a
		// lease expired).
		return LeaseResponse{None: true, RetryMs: c.opts.leaseTTL().Milliseconds()/2 + 1}, span.SpanContext{}
	}
	hi := lo
	for hi < len(c.chunks) && hi-lo < c.opts.leaseChunks() && c.chunks[hi] == chunkPending {
		c.chunks[hi] = chunkLeased
		hi++
	}
	if c.opts.Metrics != nil {
		// How long each granted chunk sat grantable — the "lease wait"
		// phase of the fabric's latency decomposition.
		for i := lo; i < hi; i++ {
			c.opts.Metrics.LeaseWait(now.Sub(c.pending[i]).Seconds())
		}
	}
	return c.issueLocked(worker, sim.ChunkRange{Lo: lo, Hi: hi}, nil, now)
}

// issueLocked mints a lease (or, with hedgeOf set, a hedge duplicating
// hedgeOf's range) for worker and builds the grant response. Called
// with mu held.
func (c *Coordinator) issueLocked(worker string, chunks sim.ChunkRange, hedgeOf *lease, now time.Time) (LeaseResponse, span.SpanContext) {
	c.nextLease++
	l := &lease{
		id:      fmt.Sprintf("lease-%d", c.nextLease),
		worker:  worker,
		chunks:  chunks,
		expires: now.Add(c.opts.leaseTTL()),
		granted: now,
	}
	attrs := []span.Attr{
		span.Str("lease", l.id), span.Str("worker", worker),
		span.Int("lo", chunks.Lo), span.Int("hi", chunks.Hi),
	}
	if hedgeOf != nil {
		l.hedgeOf = hedgeOf.id
		hedgeOf.hedged = true
		c.hedged++
		attrs = append(attrs, span.Bool("hedge", true), span.Str("hedge_of", hedgeOf.id))
		if c.opts.Metrics != nil {
			c.opts.Metrics.HedgeIssued()
		}
	}
	l.span = c.opts.Tracer.Start("lease", c.jobSpan.Context(), attrs...)
	c.leases[l.id] = l
	c.granted++
	c.healthLocked(worker).granted++
	if c.opts.Metrics != nil {
		c.opts.Metrics.LeaseGranted(chunks.Hi - chunks.Lo)
	}
	job := c.job
	return LeaseResponse{
		Job: &job,
		Lease: &Lease{
			ID:     l.id,
			Chunks: l.chunks,
			TTLMs:  c.opts.leaseTTL().Milliseconds(),
		},
	}, l.span.Context()
}

// heartbeat extends a lease; a lease that no longer exists (expired and
// possibly reassigned) tells the worker to abandon the range.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.Worker, now)
	c.expireLocked(now)
	if c.opts.Metrics != nil {
		c.opts.Metrics.HeartbeatSeen()
	}
	l, ok := c.leases[req.Lease]
	if !ok || l.worker != req.Worker {
		return HeartbeatResponse{Expired: true}
	}
	l.expires = now.Add(c.opts.leaseTTL())
	return HeartbeatResponse{OK: true}
}

// result ingests one delivered result: CRC-verified bytes were already
// unwrapped by the handler; here the fragment is validated and merged
// idempotently, and the worker's lease (if still held) is settled.
func (c *Coordinator) result(req ResultPayload) (ResultResponse, error) {
	now := c.clock.Now()
	var settled *lease
	c.mu.Lock()
	c.touchLocked(req.Worker, now)
	c.expireLocked(now)
	if l, ok := c.leases[req.Lease]; ok && l.worker == req.Worker {
		// Settle the lease: chunks it covered that the fragment does not
		// mark done fall back to pending (a worker only reports complete
		// ranges, so normally none) — unless another live lease (the
		// hedge, or the primary this hedge duplicated) still covers them.
		for i := l.chunks.Lo; i < l.chunks.Hi; i++ {
			if c.chunks[i] == chunkLeased && !c.chunkCoveredLocked(i, req.Lease) {
				c.chunks[i] = chunkPending
				c.pending[i] = now
			}
		}
		delete(c.leases, req.Lease)
		settled = l
	}
	c.mu.Unlock()

	if req.Checkpoint == nil {
		c.noteRejected()
		settled.endSpan("rejected", 0, 0)
		return ResultResponse{}, fmt.Errorf("%w: result carries no checkpoint", ErrJobMismatch)
	}
	accepted, dups, err := c.accept(req.Checkpoint)
	if err != nil {
		c.noteRejected()
		settled.endSpan("rejected", accepted, dups)
		return ResultResponse{}, err
	}
	settled.endSpan("delivered", accepted, dups)
	if c.opts.Metrics != nil {
		if accepted > 0 {
			c.opts.Metrics.ResultAccepted(accepted)
		}
		if dups > 0 {
			c.opts.Metrics.DuplicateChunks(dups)
		}
		if settled != nil {
			// Grant-to-result turnaround, spread over the lease's chunks:
			// the coordinator-side view of per-chunk duration.
			n := settled.chunks.Hi - settled.chunks.Lo
			if n > 0 {
				c.opts.Metrics.ChunkDuration(now.Sub(settled.granted).Seconds()/float64(n), n)
			}
		}
	}
	c.mu.Lock()
	c.duplicates += int64(dups)
	if settled != nil {
		c.healthLocked(settled.worker).delivered++
		c.recordCompletionLocked(now.Sub(settled.granted))
	}
	done := c.complete
	c.mu.Unlock()
	return ResultResponse{Accepted: accepted, Duplicates: dups, Done: done}, nil
}

// noteCorrupt charges a corrupt upload (failed checksum, JSON, or job
// identity) to the worker's scorecard. The worker name comes from the
// WorkerHeader when the body was too corrupt to name one. At the
// QuarantineCorrupt-th strike the worker is blacklisted: its
// outstanding leases are revoked (their chunks return to the pool
// immediately rather than at TTL), the metric is bumped, and a
// "quarantine" span under the job records why.
func (c *Coordinator) noteCorrupt(worker string) {
	if worker == "" {
		return
	}
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	h.corrupt++
	if qc := c.opts.QuarantineCorrupt; qc <= 0 || h.quarantined || h.corrupt < int64(qc) {
		return
	}
	h.quarantined = true
	c.quarantined++
	for _, l := range c.leases {
		if l.worker == worker {
			l.expires = now.Add(-time.Nanosecond)
		}
	}
	c.expireLocked(now)
	if c.opts.Metrics != nil {
		c.opts.Metrics.WorkerQuarantined()
	}
	c.opts.Tracer.Start("quarantine", c.jobSpan.Context(),
		span.Str("worker", worker), span.Bool("quarantined", true), span.Str("reason", "corrupt-uploads"),
		span.Int64("corrupt_uploads", h.corrupt)).End()
}

// endSpan closes a settled lease's span with its outcome; nil-safe for
// both an untraced coordinator and an already-expired (nil) lease.
func (l *lease) endSpan(outcome string, accepted, duplicates int) {
	if l == nil {
		return
	}
	l.span.End(span.Str("outcome", outcome), span.Int("accepted", accepted), span.Int("duplicates", duplicates))
}

func (c *Coordinator) noteRejected() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	if c.opts.Metrics != nil {
		c.opts.Metrics.ResultRejected()
	}
}

// Status snapshots progress; it also sweeps expiry so a status poller
// (or the Wait loop) keeps reassignment moving without worker traffic.
func (c *Coordinator) Status() Status {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	s := Status{
		Trials:             c.job.Trials,
		Chunks:             len(c.chunks),
		WorkersLive:        c.liveWorkersLocked(now),
		Complete:           c.complete,
		LeasesGranted:      c.granted,
		LeasesExpired:      c.expired,
		ChunksReassigned:   c.reassigned,
		DuplicatesDropped:  c.duplicates,
		ResultsRejected:    c.rejected,
		HedgesIssued:       c.hedged,
		WorkersQuarantined: c.quarantined,
		RPCsShed:           c.shed,
	}
	for worker, h := range c.health {
		s.Workers = append(s.Workers, WorkerStatus{
			Worker: worker, Granted: h.granted, Delivered: h.delivered,
			Expired: h.expired, Corrupt: h.corrupt, Quarantined: h.quarantined,
		})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	for _, st := range c.chunks {
		switch st {
		case chunkDone:
			s.ChunksDone++
		case chunkLeased:
			s.ChunksLeased++
		default:
			s.ChunksPending++
		}
	}
	if c.opts.Metrics != nil {
		c.opts.Metrics.WorkersLive(s.WorkersLive)
	}
	return s
}

// Frontier returns a snapshot of the merge frontier safe to use while
// handlers keep running (records are immutable once appended; the
// snapshot copies the record slices under the lock). Records come back
// in canonical index order regardless of delivery order — one of the
// two halves of the bit-identity guarantee (the other being the
// engine's in-order chunk merge).
func (c *Coordinator) Frontier() *sim.Checkpoint {
	c.mu.Lock()
	cp := *c.frontier
	cp.Chunks = append([]sim.ChunkRecord(nil), c.frontier.Chunks...)
	cp.Panics = append([]sim.PanicRecord(nil), c.frontier.Panics...)
	c.mu.Unlock()
	sort.Slice(cp.Chunks, func(i, j int) bool { return cp.Chunks[i].Index < cp.Chunks[j].Index })
	sort.Slice(cp.Panics, func(i, j int) bool { return cp.Panics[i].Trial < cp.Panics[j].Trial })
	return &cp
}

// Done reports whether every chunk is merged.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.complete
}

// Wait blocks until the job completes, ctx cancels, or — when
// QuorumTimeout is set — no worker has made contact for that long while
// chunks are still missing (ErrQuorumLost). It sweeps lease expiry on a
// timer so a dead worker's chunks return to the pool even with no other
// traffic.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := c.opts.leaseTTL() / 2
	if tick <= 0 {
		tick = time.Second
	}
	for {
		select {
		case <-c.done:
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-c.clock.After(tick):
			c.Status() // sweeps expiry, refreshes the liveness gauge
			if q := c.opts.QuorumTimeout; q > 0 {
				c.mu.Lock()
				lost := !c.complete && c.clock.Now().Sub(c.contact) > q
				c.mu.Unlock()
				if lost {
					return fmt.Errorf("%w: no worker contact for %v", ErrQuorumLost, q)
				}
			}
		}
	}
}

// Finalize merges the current frontier into the job's estimate. On a
// complete frontier the merge runs in chunk order through the engine's
// resume path, so the rendered estimate is bit-identical to a
// single-process run; on a partial frontier it returns the partial
// estimate and an error matching sim.ErrInterrupted.
func (c *Coordinator) Finalize(ctx context.Context) (string, sim.RunReport, error) {
	sp := c.opts.Tracer.Start("finalize", c.jobSpan.Context())
	est, rep, err := c.runner.Finalize(ctx, c.Frontier())
	outcome := "complete"
	if err != nil {
		outcome = "partial"
	}
	sp.End(span.Int("merged", rep.Completed), span.Str("outcome", outcome))
	c.jobSpan.End(span.Str("outcome", outcome))
	return est, rep, err
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /v1/lease      LeaseRequest  -> LeaseResponse
//	POST /v1/heartbeat  HeartbeatRequest -> HeartbeatResponse
//	POST /v1/result     envelope(ResultPayload) -> ResultResponse
//	GET  /v1/status     -> Status
//
// Serve it through obs.NewHTTPServer (or equivalent) so the listener
// carries header/idle timeouts.
func (c *Coordinator) Handler() http.Handler {
	// instrument wraps one route with the coordinator-side RPC
	// telemetry: a "serve.<route>" span parented under whatever trace
	// context the request headers carry (the worker's client-side RPC
	// span), and the rpc-latency histogram. Both are nil-guarded, so an
	// unobserved coordinator serves the bare handler logic.
	instrument := func(route string, h http.HandlerFunc) http.HandlerFunc {
		if c.opts.Tracer == nil && c.opts.Metrics == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			t0 := c.clock.Now()
			sp := c.opts.Tracer.Start("serve."+route, span.Extract(r.Header))
			h(w, r)
			sp.End()
			if c.opts.Metrics != nil {
				c.opts.Metrics.RPCServed(route, c.clock.Now().Sub(t0).Seconds())
			}
		}
	}
	// admit sheds load once MaxInflightRPCs fabric RPCs are already in
	// flight: 429 plus a Retry-After the worker's backoff honors. The
	// counter is atomic — an overloaded coordinator must refuse work
	// without queueing on the very lock that is overloaded.
	admit := func(h http.HandlerFunc) http.HandlerFunc {
		limit := int64(c.opts.MaxInflightRPCs)
		if limit <= 0 {
			return h
		}
		retryAfter := int(c.opts.leaseTTL().Seconds() / 2)
		if retryAfter < 1 {
			retryAfter = 1
		}
		return func(w http.ResponseWriter, r *http.Request) {
			if c.inflight.Add(1) > limit {
				c.inflight.Add(-1)
				c.mu.Lock()
				c.shed++
				c.mu.Unlock()
				if c.opts.Metrics != nil {
					c.opts.Metrics.RPCShed()
				}
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
				http.Error(w, "fabric: coordinator overloaded", http.StatusTooManyRequests)
				return
			}
			defer c.inflight.Add(-1)
			h(w, r)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", instrument("lease", admit(func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, leaseCtx := c.grant(req.Worker)
		// Every lease response advertises the job's trace; a granted
		// lease additionally names its "lease" span as the parent the
		// worker's spans should hang under. Headers must precede the
		// body write.
		span.Inject(span.SpanContext{Trace: c.opts.Tracer.TraceID(), Span: leaseCtx.Span}, w.Header())
		writeJSON(w, resp)
	})))
	mux.HandleFunc("POST /v1/heartbeat", instrument("heartbeat", admit(func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.heartbeat(req))
	})))
	mux.HandleFunc("POST /v1/result", instrument("result", admit(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// CRC verification on receipt: a truncated or bit-flipped upload
		// is refused here, before any of it can touch the frontier. The
		// reply is 422 — the worker's copy of the bytes is good, the
		// transit corrupted them, so retrying the upload is the fix —
		// and the corruption is charged to the worker named by the RPC
		// header (the body is unparseable, so it names nobody).
		payload, err := sim.DecodeEnvelope(body)
		if err != nil {
			c.noteRejected()
			c.noteCorrupt(r.Header.Get(WorkerHeader))
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		var req ResultPayload
		if err := json.Unmarshal(payload, &req); err != nil {
			c.noteRejected()
			c.noteCorrupt(r.Header.Get(WorkerHeader))
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		resp, err := c.result(req)
		if err != nil {
			// A fragment that decoded cleanly but fails job-identity
			// validation is a misbehaving worker, not line noise: 409,
			// which the worker treats as permanent.
			c.noteCorrupt(req.Worker)
			status := http.StatusConflict
			if !errors.Is(err, ErrJobMismatch) {
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, resp)
	})))
	mux.HandleFunc("GET /v1/status", instrument("status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	}))
	return mux
}

// readJSON decodes a small JSON request body, replying 400 on garbage.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
