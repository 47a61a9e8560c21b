package obs

// FabricMetrics is the observability hook of the distributed trial
// fabric (internal/fabric): it implements fabric's Metrics interface
// structurally — neither package imports the other, mirroring the
// sim.Metrics bridge — and fans each coordinator event out to named
// registry instruments. Everything here is a cold-path call (per lease,
// per result, per sweep — never per trial), so plain counters suffice.

import "repro/internal/fault"

// FabricMetrics maintains the fabric.* instruments of one coordinator.
type FabricMetrics struct {
	leasesGranted    *Counter // leases handed to workers
	leasesExpired    *Counter // leases whose heartbeat lapsed
	chunksReassigned *Counter // chunks returned to pending by expiry
	resultsAccepted  *Counter // result deliveries with >= 1 fresh chunk
	chunksAccepted   *Counter // chunk records merged into the frontier
	chunksDuplicate  *Counter // duplicate/late chunk records dropped
	resultsRejected  *Counter // results refused (CRC, identity, bounds)
	heartbeats       *Counter // heartbeats received
	workersLive      *Gauge   // workers seen within the liveness window

	rpcs      *Counter   // fabric RPCs served, all routes
	leaseWait *Histogram // chunk pending-to-grant wait, seconds
	rpcTime   *Histogram // RPC service time, seconds
	chunkTime *Histogram // per-chunk grant-to-result turnaround, seconds

	hedges      *Counter // hedged (speculative duplicate) leases issued
	quarantined *Counter // workers blacklisted for misbehavior
	shed        *Counter // RPCs refused with 429 under admission control
}

// NewFabricMetrics registers the fabric instruments in reg and returns
// the hook to hand to the coordinator.
func NewFabricMetrics(reg *Registry) *FabricMetrics {
	return &FabricMetrics{
		leasesGranted:    reg.Counter("fabric.leases_granted"),
		leasesExpired:    reg.Counter("fabric.leases_expired"),
		chunksReassigned: reg.Counter("fabric.chunks_reassigned"),
		resultsAccepted:  reg.Counter("fabric.results_accepted"),
		chunksAccepted:   reg.Counter("fabric.chunks_accepted"),
		chunksDuplicate:  reg.Counter("fabric.chunks_duplicate_dropped"),
		resultsRejected:  reg.Counter("fabric.results_rejected"),
		heartbeats:       reg.Counter("fabric.heartbeats"),
		workersLive:      reg.Gauge("fabric.workers_live"),
		rpcs:             reg.Counter("fabric.rpcs_served"),
		leaseWait:        reg.Histogram("fabric.lease_wait_seconds", SecondsBounds...),
		rpcTime:          reg.Histogram("fabric.rpc_seconds", SecondsBounds...),
		chunkTime:        reg.Histogram("fabric.chunk_seconds", SecondsBounds...),
		hedges:           reg.Counter("fabric.hedges_issued"),
		quarantined:      reg.Counter("fabric.workers_quarantined"),
		shed:             reg.Counter("fabric.rpcs_shed"),
	}
}

// LeaseGranted records one lease of the given chunk count handed out.
func (m *FabricMetrics) LeaseGranted(chunks int) { m.leasesGranted.Inc() }

// LeaseExpired records one lease whose heartbeat lapsed, returning the
// given number of not-yet-done chunks to the pending pool.
func (m *FabricMetrics) LeaseExpired(chunks int) {
	m.leasesExpired.Inc()
	m.chunksReassigned.Add(int64(chunks))
}

// ResultAccepted records one result delivery that contributed fresh
// chunks to the merge frontier.
func (m *FabricMetrics) ResultAccepted(chunks int) {
	m.resultsAccepted.Inc()
	m.chunksAccepted.Add(int64(chunks))
}

// DuplicateChunks records chunk records dropped because an earlier
// valid result already covered them (late redelivery, or a
// reassigned-then-returned lease).
func (m *FabricMetrics) DuplicateChunks(n int) { m.chunksDuplicate.Add(int64(n)) }

// ResultRejected records one result delivery refused outright —
// checksum mismatch, job-identity mismatch, or out-of-range chunks.
func (m *FabricMetrics) ResultRejected() { m.resultsRejected.Inc() }

// HeartbeatSeen records one worker heartbeat.
func (m *FabricMetrics) HeartbeatSeen() { m.heartbeats.Inc() }

// WorkersLive sets the worker-liveness gauge.
func (m *FabricMetrics) WorkersLive(n int) { m.workersLive.Set(int64(n)) }

// LeaseWait records how long one chunk sat pending before being
// granted — the queueing delay a straggler analysis attributes to
// coordinator-side backlog rather than worker-side compute.
func (m *FabricMetrics) LeaseWait(seconds float64) { m.leaseWait.Observe(seconds) }

// RPCServed records one fabric RPC handled. The route is folded into
// the shared service-time histogram (the registry is label-free); the
// per-route split lives in the trace, not the metrics.
func (m *FabricMetrics) RPCServed(route string, seconds float64) {
	m.rpcs.Inc()
	m.rpcTime.Observe(seconds)
}

// ChunkDuration records the mean per-chunk grant-to-result turnaround
// of one settled lease, weighted by its chunk count.
func (m *FabricMetrics) ChunkDuration(seconds float64, chunks int) {
	m.chunkTime.ObserveN(seconds, int64(chunks))
}

// HedgeIssued records one hedged lease: a speculative duplicate of a
// straggling lease's range, granted before the original expired.
func (m *FabricMetrics) HedgeIssued() { m.hedges.Inc() }

// WorkerQuarantined records one worker blacklisted for corrupt uploads.
func (m *FabricMetrics) WorkerQuarantined() { m.quarantined.Inc() }

// RPCShed records one RPC refused with 429 + Retry-After because the
// coordinator was at its in-flight cap.
func (m *FabricMetrics) RPCShed() { m.shed.Inc() }

// BreakerGauge returns a fault.Breaker OnChange hook mirroring the new
// state into the "fabric.breaker_state" gauge (0 closed, 1 open, 2
// half-open) — the worker-side view of coordinator reachability.
func BreakerGauge(reg *Registry) func(from, to fault.BreakerState) {
	g := reg.Gauge("fabric.breaker_state")
	return func(_, to fault.BreakerState) { g.Set(int64(to)) }
}
