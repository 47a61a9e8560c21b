package main

// Per-layer metrics from the spans of a traced run. A span's self time
// is its duration minus the part of its interval its child spans cover.
// Only spans that a declared per-layer metric reports, plus the job's
// set-up and answer check, account for a job's time; the rest of the
// job's duration is unaccounted, and the layer-sum check bounds it.

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs/span"
)

// node is one span with its children.
type node struct {
	rec  span.Record
	kids []*node
}

func (n *node) end() int64 { return n.rec.MonoNs + n.rec.DurNs }

// spanForest links span records to their parents and returns the roots
// grouped by their "job" attribute.
func spanForest(recs []span.Record) map[int][]*node {
	byID := make(map[string]*node, len(recs))
	nodes := make([]*node, len(recs))
	for i := range recs {
		nodes[i] = &node{rec: recs[i]}
		byID[recs[i].ID] = nodes[i]
	}
	jobs := map[int][]*node{}
	for _, n := range nodes {
		if p, ok := byID[n.rec.Parent]; ok && n.rec.Parent != "" {
			p.kids = append(p.kids, n)
			continue
		}
		id := int(n.rec.AttrInt("job"))
		jobs[id] = append(jobs[id], n)
	}
	return jobs
}

// clip appends n's interval, clipped to [lo, hi), to iv when the two
// overlap.
func clip(iv [][2]int64, n *node, lo, hi int64) [][2]int64 {
	if a, b := max(n.rec.MonoNs, lo), min(n.end(), hi); a < b {
		iv = append(iv, [2]int64{a, b})
	}
	return iv
}

// unionNs is the length of the union of the intervals; it sorts iv.
func unionNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	reach := int64(math.MinInt64)
	for _, x := range iv {
		a := max(x[0], reach)
		if x[1] > a {
			covered += x[1] - a
			reach = x[1]
		}
	}
	return covered
}

// selfNs is n's duration minus the union of its children's intervals,
// each clipped to n's own.
func selfNs(n *node) int64 {
	iv := make([][2]int64, 0, len(n.kids))
	for _, k := range n.kids {
		iv = clip(iv, k, n.rec.MonoNs, n.end())
	}
	return n.rec.DurNs - unionNs(iv)
}

// selfByName sums the self time of every span in n's tree by name.
func selfByName(n *node, into map[string]int64) {
	into[n.rec.Name] += selfNs(n)
	for _, k := range n.kids {
		selfByName(k, into)
	}
}

// rpcPaths are the worker-to-coordinator RPC routes reported per path.
var rpcPaths = []string{"lease", "heartbeat", "result"}

// accounted reports whether a span's time counts toward a job's layers:
// it is the job's set-up or answer check, or a span that a declared
// per-layer metric reports. Catch-all spans (the job root, a worker's
// lifetime, the coordinator wait) do not count.
func accounted(name string) bool {
	switch name {
	case "setup", "check", "chunk", "lease.wait":
		return true
	}
	for _, prefix := range []string{"rpc.", "serve."} {
		if p, ok := strings.CutPrefix(name, prefix); ok {
			return slices.Contains(rpcPaths, p)
		}
	}
	for _, sp := range selfSpans {
		if sp == name {
			return true
		}
	}
	return false
}

// unaccountedFrac is the share of the job root's duration during which
// no accounted span runs, among the root's descendants and the trees of
// others (spans of the same job outside the root's tree).
func unaccountedFrac(job *node, others []*node) float64 {
	lo, hi := job.rec.MonoNs, job.end()
	if hi <= lo {
		return 0
	}
	var iv [][2]int64
	var walk func(n *node)
	walk = func(n *node) {
		if accounted(n.rec.Name) {
			iv = clip(iv, n, lo, hi)
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	for _, k := range job.kids {
		walk(k)
	}
	for _, n := range others {
		walk(n)
	}
	return 1 - float64(unionNs(iv))/float64(hi-lo)
}

// sumNs sums the durations of the spans named name in the trees of ns.
func sumNs(ns []*node, name string) int64 {
	var total int64
	for _, n := range ns {
		if n.rec.Name == name {
			total += n.rec.DurNs
		}
		total += sumNs(n.kids, name)
	}
	return total
}

// jobLayers computes one traced job's per-layer values from its root
// spans, the spans its fabric workers recorded, and the values the job
// measured itself.
func jobLayers(roots []*node, res jobResult) map[string]float64 {
	out := map[string]float64{}
	for k, v := range res.layers {
		out[k] = v
	}
	var job *node
	var others []*node
	for _, r := range roots {
		if r.rec.Name == "job" {
			job = r
		} else {
			others = append(others, r)
		}
	}
	out["layers.unaccounted_frac"] = 1 // a job with no root accounts for nothing
	if job != nil {
		// The workers' tracer has its own monotonic origin; place its
		// spans on the job's clock by their wall-clock starts.
		shift := job.rec.StartUnixNs - job.rec.MonoNs
		shifted := make([]span.Record, len(res.workerSpans))
		for i, r := range res.workerSpans {
			r.MonoNs = r.StartUnixNs - shift
			shifted[i] = r
		}
		for _, ns := range spanForest(shifted) {
			others = append(others, ns...)
		}
		all := append([]*node{job}, others...)
		self := map[string]int64{}
		for _, n := range all {
			selfByName(n, self)
		}
		for metric, sp := range selfSpans {
			out[metric] = float64(self[sp]) / 1e9
		}
		out["layers.unaccounted_frac"] = unaccountedFrac(job, others)
		out["sim.chunk.busy_s"] = float64(sumNs(all, "chunk")) / 1e9
		out["fabric.worker.lease_wait_s"] = float64(sumNs(all, "lease.wait")) / 1e9
	}
	rpcUs := map[string][]float64{}
	var rpcNs, workerNs, resultBytes int64
	var rpcs, httpErrors int
	for _, r := range roots {
		switch name := r.rec.Name; {
		case name == "worker":
			workerNs += r.rec.DurNs
			for _, k := range r.kids {
				p, ok := strings.CutPrefix(k.rec.Name, "rpc.")
				if !ok {
					continue
				}
				rpcs++
				rpcNs += k.rec.DurNs
				rpcUs[p] = append(rpcUs[p], float64(k.rec.DurNs)/1e3)
				if st := k.rec.AttrInt("status"); st != 200 && st != statusCancelled {
					httpErrors++
				}
				if p == "result" {
					resultBytes += k.rec.AttrInt("bytes")
				}
			}
		case strings.HasPrefix(name, "serve."):
			out["fabric."+name+".busy_s"] += float64(r.rec.DurNs) / 1e9
		}
	}
	for _, p := range rpcPaths {
		us := rpcUs[p]
		sort.Float64s(us)
		out["fabric.rpc."+p+".count"] = float64(len(us))
		out["fabric.rpc."+p+".p50_us"] = percentile(us, 0.50)
		out["fabric.rpc."+p+".p99_us"] = percentile(us, 0.99)
	}
	if rpcs > 0 {
		out["fabric.http_errors"] = float64(httpErrors)
	}
	if res.chunks > 0 {
		out["fabric.rpcs_per_chunk"] = float64(rpcs) / float64(res.chunks)
		out["sim.envelope.bytes_per_chunk"] = float64(resultBytes) / float64(res.chunks)
	}
	if workerNs > 0 {
		out["fabric.worker.rpc_frac"] = float64(rpcNs) / float64(workerNs)
	}
	if s := out["mdp.explore.s"]; s > 0 {
		out["mdp.explore.states_per_s"] = out["mdp.states"] / s
	}
	return out
}

// percentile is the nearest-rank q-quantile of sorted (0 when empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// median is the middle value of xs, or the mean of the middle two
// (0 when empty). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
