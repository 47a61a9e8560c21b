package main

// The benchmark's declarations: its workloads, its end-to-end metrics
// with the bound by which each may worsen, and its per-layer metrics
// with the module each belongs to and the end-to-end metric and
// workload it should move. BENCHMARK.json at the repository root lists
// the same names, units and directions; TestBenchmarkJSONMatches keeps
// the two in step.

// workloadDecl names one workload and records why it was chosen.
type workloadDecl struct {
	Name, Why string
}

var workloadDecls = []workloadDecl{
	{"mc-steady", "dining n=8 slowest policy, fresh Runner per job: the compile cache warms in the first trials, so the steady trial loop does the work"},
	{"mc-cold", "dining n=8 random policy, fresh Runner per job: nearly every trial interns new states, so compile-cache interning and heap growth do the work"},
	{"fabric-loopback", "election n=3 on a coordinator and 2 workers over loopback HTTP: short trials make lease and result RPCs, CRC envelope and merge count"},
	{"exact-dining", "lrcheck chain on the dining n=3 k=2 product (35,405 states): the only workload that runs the mdp explorer and core solvers"},
}

// metricDecl declares one metric. Bound is set on end-to-end metrics
// only; Layer, Moves and On on per-layer metrics only.
type metricDecl struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	// Layer is the module the metric measures.
	Layer string
	// Moves names the end-to-end metrics a change to the layer should
	// move, and On the workloads where it should move them.
	Moves, On string
}

// endToEnd are the metrics a user sees, reported by untraced runs.
var endToEnd = []metricDecl{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

const (
	layerEngine  = "internal/sim engine"
	layerCompile = "internal/sim compile cache"
	layerLoop    = "internal/sim trial loop"
	layerMerge   = "internal/sim checkpoint and merge"
	layerFabric  = "internal/fabric"
	layerExplore = "internal/mdp explore"
	layerSolvers = "internal/core + internal/mdp solvers"
	movesSpeed   = "throughput_per_s, job_s"
	movesHeap    = "throughput_per_s, live_heap_mb"
	onFabric     = "fabric-loopback; no change on mc-steady or mc-cold"
	onMC         = "mc-steady, mc-cold"
	onCold       = "mc-cold; no change expected on mc-steady"
	onLoop       = "mc-steady; small on mc-cold"
)

// perLayer are the metrics of single layers, reported by traced runs.
// A workload that does not run a layer reports its metrics as 0.
var perLayer = []metricDecl{
	{Name: "sim.estimate.s", Unit: "s", Better: "lower", Layer: layerEngine, Moves: movesSpeed, On: onMC},
	{Name: "sim.chunk.busy_s", Unit: "s", Better: "lower", Layer: layerLoop, Moves: movesSpeed, On: "mc-steady, mc-cold, fabric-loopback"},
	{Name: "sim.compile.warmup_s", Unit: "s", Better: "lower", Layer: layerCompile, Moves: movesHeap, On: onCold},
	{Name: "sim.compile.heap_bytes_per_trial", Unit: "B", Better: "lower", Layer: layerCompile, Moves: movesHeap, On: onCold},
	{Name: "sim.loop.warm_trials_per_s", Unit: "1/s", Better: "higher", Layer: layerLoop, Moves: "throughput_per_s", On: onLoop},
	{Name: "sim.loop.allocs_per_trial", Unit: "count", Better: "lower", Layer: layerLoop, Moves: "throughput_per_s", On: onLoop},
	{Name: "sim.loop.bytes_per_trial", Unit: "B", Better: "lower", Layer: layerLoop, Moves: "throughput_per_s", On: onLoop},
	{Name: "sim.merge.finalize_s", Unit: "s", Better: "lower", Layer: layerMerge, Moves: "job_s", On: "fabric-loopback"},
	{Name: "sim.envelope.bytes_per_chunk", Unit: "B", Better: "lower", Layer: layerMerge, Moves: "job_s", On: "fabric-loopback"},
	{Name: "fabric.rpc.lease.count", Unit: "count", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.lease.p50_us", Unit: "us", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.lease.p99_us", Unit: "us", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.heartbeat.count", Unit: "count", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.heartbeat.p50_us", Unit: "us", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.heartbeat.p99_us", Unit: "us", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.result.count", Unit: "count", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.result.p50_us", Unit: "us", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpc.result.p99_us", Unit: "us", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.serve.lease.busy_s", Unit: "s", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.serve.heartbeat.busy_s", Unit: "s", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.serve.result.busy_s", Unit: "s", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.rpcs_per_chunk", Unit: "count", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.worker.rpc_frac", Unit: "frac", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.useful_chunk_frac", Unit: "frac", Better: "higher", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.worker.lease_self_s", Unit: "s", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.worker.lease_wait_s", Unit: "s", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.http_errors", Unit: "count", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "fabric.leases_expired", Unit: "count", Better: "lower", Layer: layerFabric, Moves: movesSpeed, On: onFabric},
	{Name: "mdp.explore.s", Unit: "s", Better: "lower", Layer: layerExplore, Moves: movesHeap, On: "exact-dining"},
	{Name: "mdp.explore.states_per_s", Unit: "1/s", Better: "higher", Layer: layerExplore, Moves: movesHeap, On: "exact-dining"},
	{Name: "mdp.states", Unit: "count", Better: "lower", Layer: layerExplore, Moves: movesHeap, On: "exact-dining"},
	{Name: "mdp.bytes_per_state", Unit: "B", Better: "lower", Layer: layerExplore, Moves: movesHeap, On: "exact-dining"},
	{Name: "core.chain.s", Unit: "s", Better: "lower", Layer: layerSolvers, Moves: movesSpeed, On: "exact-dining"},
	{Name: "core.proof.s", Unit: "s", Better: "lower", Layer: layerSolvers, Moves: movesSpeed, On: "exact-dining"},
	{Name: "core.direct.s", Unit: "s", Better: "lower", Layer: layerSolvers, Moves: movesSpeed, On: "exact-dining"},
	{Name: "core.recurrence.s", Unit: "s", Better: "lower", Layer: layerSolvers, Moves: movesSpeed, On: "exact-dining"},
	{Name: "mdp.expected.s", Unit: "s", Better: "lower", Layer: layerSolvers, Moves: movesSpeed, On: "exact-dining"},
	{Name: "mdp.qualitative.s", Unit: "s", Better: "lower", Layer: layerSolvers, Moves: movesSpeed, On: "exact-dining"},
	{Name: "layers.unaccounted_frac", Unit: "frac", Better: "lower", Layer: "all", Moves: "—", On: "every workload"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Layer: "all", Moves: "—", On: "every workload"},
}

// unaccountedTolerance is the largest share of a traced job's time
// during which no span of a declared layer runs (see accounted); a
// traced run with a job over it fails its layer-sum check.
const unaccountedTolerance = 0.05

// selfSpans maps the per-layer time metrics to the bracketing span whose
// self time they report. sim.estimate's self time is Runner.Estimate
// outside its engine chunks, whose total sim.chunk.busy_s reports.
var selfSpans = map[string]string{
	"sim.estimate.s":       "sim.estimate",
	"sim.merge.finalize_s": "sim.merge.finalize",
	// A fabric worker's lease outside its chunks and RPCs: building the
	// engine run, heartbeats, and encoding the result envelope.
	"fabric.worker.lease_self_s": "worker.lease",
	"core.recurrence.s":          "core.recurrence",
	"mdp.explore.s":              "mdp.explore",
	"core.chain.s":               "core.chain",
	"core.proof.s":               "core.proof",
	"core.direct.s":              "core.direct",
	"mdp.expected.s":             "mdp.expected",
	"mdp.qualitative.s":          "mdp.qualitative",
}
