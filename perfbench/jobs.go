package main

// The workloads' jobs. Each job drives one user-facing path
// through the public functions a CLI calls, brackets every call with a
// span (a no-op on untraced jobs, whose tracer is nil), and checks its
// answer against the recorded one.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dining"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sim"
)

// engineWorkers is the number of engine goroutines every workload runs
// in total: the Runner's workers, the two fabric workers at one each,
// or the exact engine's explorer and solvers.
const engineWorkers = 2

// jobResult is what one job reports besides its error.
type jobResult struct {
	dur  time.Duration // job start to checked answer
	work int           // trials run, or product states explored
	heap uint64        // live heap after a forced GC at job end
	// chunks is the fabric job's chunk count (0 elsewhere).
	chunks int
	// workerSpans are the spans the fabric workers' own tracer recorded
	// on a traced job (see loopback.workerSpans), timed on that tracer's
	// clock.
	workerSpans []span.Record
	// layers holds per-layer values measured outside spans; set on
	// traced jobs only.
	layers map[string]float64
}

// workload runs the jobs of one workload.
type workload struct {
	workloadDecl
	// setup builds one job's set-up for seed, tears it down, and returns
	// the time the build took.
	setup func(ctx context.Context, seed int64) (time.Duration, error)
	// job runs one job with seed and checks its answer; tr is nil on
	// untraced jobs. id tags the job's root spans.
	job func(ctx context.Context, seed int64, tr *span.Tracer, id int) (jobResult, error)
	// answer computes the canonical answer line for seed along a path
	// independent of the measured one (one engine goroutine).
	answer func(ctx context.Context, seed int64) (string, error)
	// seedless marks a workload whose input does not depend on the job
	// seed, so it has one recorded answer.
	seedless bool
}

var workloads = func() map[string]*workload {
	byName := map[string]*workload{}
	for _, d := range workloadDecls {
		byName[d.Name] = &workload{workloadDecl: d}
	}
	mc := func(name string, spec fabric.JobSpec) {
		w := byName[name]
		w.setup = func(ctx context.Context, seed int64) (time.Duration, error) {
			return mcSetup(ctx, withSeed(spec, seed))
		}
		w.job = func(ctx context.Context, seed int64, tr *span.Tracer, id int) (jobResult, error) {
			return mcJob(ctx, name, withSeed(spec, seed), tr, id)
		}
		w.answer = func(ctx context.Context, seed int64) (string, error) {
			return runnerAnswer(ctx, withSeed(spec, seed))
		}
	}
	mc("mc-steady", fabric.JobSpec{Model: "dining", N: 8, Policy: "slowest",
		Estimator: fabric.EstimatorReachProb, Within: 13, Trials: 100_000})
	mc("mc-cold", fabric.JobSpec{Model: "dining", N: 8, Policy: "random",
		Estimator: fabric.EstimatorReachProb, Within: 13, Trials: 3_000})

	fab := fabric.JobSpec{Model: "election", N: 3, Policy: "slowest",
		Estimator: fabric.EstimatorTimeToTarget, Trials: 100_000}
	w := byName["fabric-loopback"]
	w.setup = func(ctx context.Context, seed int64) (time.Duration, error) {
		t := time.Now()
		lb, err := startLoopback(ctx, withSeed(fab, seed), nil, 0)
		d := time.Since(t)
		if err != nil {
			return d, err
		}
		return d, lb.close()
	}
	w.job = func(ctx context.Context, seed int64, tr *span.Tracer, id int) (jobResult, error) {
		return fabricJob(ctx, withSeed(fab, seed), tr, id)
	}
	w.answer = func(ctx context.Context, seed int64) (string, error) {
		return runnerAnswer(ctx, withSeed(fab, seed))
	}

	w = byName["exact-dining"]
	w.seedless = true
	w.setup = func(context.Context, int64) (time.Duration, error) { return exactSetup() }
	w.job = exactJob
	w.answer = func(context.Context, int64) (string, error) {
		line, _, err := exactChain(nil, nil)
		return line, err
	}
	return byName
}()

func withSeed(spec fabric.JobSpec, seed int64) fabric.JobSpec {
	spec.Seed = seed
	return spec
}

// answerLine is the canonical answer line `simd local` and `simd
// coordinate` print for a job, followed by a digest of the run's
// checkpoint. The checkpoint holds every chunk's accumulator, so a
// single trial that ends differently changes the digest even where the
// printed estimate rounds it away.
func answerLine(spec fabric.JobSpec, est string, cp *sim.Checkpoint) (string, error) {
	data, err := json.Marshal(cp)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s n=%d policy=%s seed=%d trials=%d: %s checkpoint=%x",
		spec.Model, spec.N, spec.Policy, spec.Seed, spec.Trials, est, sha256.Sum256(data)), nil
}

// runnerAnswer is the single-process reference: Runner.Estimate on one
// engine goroutine.
func runnerAnswer(ctx context.Context, spec fabric.JobSpec) (string, error) {
	r, err := fabric.NewRunner(spec)
	if err != nil {
		return "", err
	}
	est, rep, err := r.Estimate(ctx, 1, fabric.EngineHooks{})
	if err != nil {
		return "", err
	}
	return answerLine(spec, est, rep.Checkpoint)
}

// bracket runs f inside a span named name under parent.
func bracket(tr *span.Tracer, parent *span.Span, name string, f func() error) error {
	sp := tr.Start(name, parent.Context())
	err := f()
	sp.End()
	return err
}

// liveHeap forces a collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mcSetup times a fresh Runner up to its first trial: NewRunner, then
// Template, which enters the engine through the estimator and runs an
// empty chunk range.
func mcSetup(ctx context.Context, spec fabric.JobSpec) (time.Duration, error) {
	t := time.Now()
	r, err := fabric.NewRunner(spec)
	if err == nil {
		_, err = r.Template(ctx)
	}
	return time.Since(t), err
}

// mcJob is `simd local`: a fresh Runner, one Estimate, the answer line.
// Traced jobs then rerun the same seed on the now-warm Runner, which
// splits the cold job into compile warm-up and the steady trial loop.
func mcJob(ctx context.Context, name string, spec fabric.JobSpec, tr *span.Tracer, id int) (jobResult, error) {
	var res jobResult
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	root := tr.Start("job", span.SpanContext{}, span.Int("job", id))
	var (
		r   fabric.Runner
		est string
		rep sim.RunReport
	)
	err := bracket(tr, root, "setup", func() (err error) {
		r, err = fabric.NewRunner(spec)
		return err
	})
	if err == nil {
		// On traced jobs the engine opens a "chunk" span per chunk under
		// the estimate, as `simd local -trace-out` has it do.
		sp := tr.Start("sim.estimate", root.Context())
		var eng fabric.EngineHooks
		if tr != nil {
			eng.Spans = span.ChunkSpans(tr, sp.Context())
		}
		est, rep, err = r.Estimate(ctx, engineWorkers, eng)
		sp.End()
	}
	if err == nil {
		err = bracket(tr, root, "check", func() error {
			line, err := answerLine(spec, est, rep.Checkpoint)
			if err != nil {
				return err
			}
			return checkAnswer(name, spec.Seed, line)
		})
	}
	res.dur = time.Since(start)
	root.End()
	if err != nil {
		return res, err
	}
	res.work = rep.Completed
	res.heap = liveHeap()
	if tr == nil {
		runtime.KeepAlive(r)
		return res, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	warmEst, _, err := r.Estimate(ctx, engineWorkers, fabric.EngineHooks{})
	warm := time.Since(t)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return res, fmt.Errorf("warm rerun: %w", err)
	}
	if warmEst != est {
		return res, fmt.Errorf("warm rerun answered %q, cold job %q", warmEst, est)
	}
	trials := float64(rep.Completed)
	res.layers = map[string]float64{
		"sim.compile.warmup_s":             (res.dur - warm).Seconds(),
		"sim.compile.heap_bytes_per_trial": (float64(res.heap) - float64(before.HeapAlloc)) / trials,
		"sim.loop.warm_trials_per_s":       trials / warm.Seconds(),
		"sim.loop.allocs_per_trial":        float64(m1.Mallocs-m0.Mallocs) / trials,
		"sim.loop.bytes_per_trial":         float64(m1.TotalAlloc-m0.TotalAlloc) / trials,
	}
	return res, nil
}

// loopback is one fabric job's in-process deployment: a coordinator
// served on a loopback listener and two workers, configured as `simd
// coordinate` and `simd work` configure them by default except for the
// lease size.
type loopback struct {
	c       *fabric.Coordinator
	srv     *http.Server
	served  chan error
	tp      *http.Transport
	workers []*fabric.Worker
	// rpcs holds the traced workers' transports, whose parent span is
	// set when the workers start.
	rpcs []*rpcSpans
	// wtr is the traced workers' own tracer (Worker.Tracer), writing to
	// wbuf; nil on untraced jobs.
	wtr  *span.Tracer
	wbuf bytes.Buffer
}

func startLoopback(ctx context.Context, spec fabric.JobSpec, tr *span.Tracer, id int) (*loopback, error) {
	c, err := fabric.NewCoordinator(ctx, spec, fabric.CoordinatorOptions{
		// 16 chunks (1,024 trials) per lease rather than the default 4:
		// at 4 the job is mostly loopback round trips, and its run-to-run
		// spread on a shared 2-core host was twice that at 16.
		LeaseChunks: 16,
		LeaseTTL:    3 * time.Second,
		Store:       &sim.ArtifactStore{Keep: 3},
		Metrics:     obs.NewFabricMetrics(obs.NewRegistry()),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := c.Handler()
	if tr != nil {
		h = serveSpans(h, tr, id)
	}
	lb := &loopback{
		c:      c,
		srv:    obs.NewHTTPServer(h),
		served: make(chan error, 1),
		tp:     http.DefaultTransport.(*http.Transport).Clone(),
	}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	if tr != nil {
		lb.wtr = span.New(&lb.wbuf, span.Options{Service: "workers"})
	}
	for i := range engineWorkers {
		var rt http.RoundTripper = lb.tp
		if tr != nil {
			rs := &rpcSpans{base: lb.tp, tr: tr}
			lb.rpcs = append(lb.rpcs, rs)
			rt = rs
		}
		lb.workers = append(lb.workers, &fabric.Worker{
			Coordinator: "http://" + ln.Addr().String(),
			ID:          fmt.Sprintf("w%d", i+1),
			Workers:     1,
			Client:      &http.Client{Timeout: 30 * time.Second, Transport: rt},
			Breaker:     fault.NewBreaker(fault.BreakerOptions{Failures: 5, Cooldown: time.Second}),
			Tracer:      lb.wtr,
		})
	}
	return lb, nil
}

// close stops the server and waits for it to return.
func (lb *loopback) close() error {
	err := lb.srv.Close()
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	lb.tp.CloseIdleConnections()
	return err
}

// workerSpans closes the workers' tracer and returns what it recorded:
// a "worker.lease" span per lease with the engine's "chunk" spans and
// the workers' "rpc.*" spans under it, and a "lease.wait" span per
// all-leased-out backoff.
func (lb *loopback) workerSpans() ([]span.Record, error) {
	if err := lb.wtr.Close(); err != nil {
		return nil, err
	}
	return span.Read(&lb.wbuf)
}

// run starts the workers and waits for the coordinator to merge every
// chunk, or for every worker to have stopped. The returned stop cancels
// the workers still polling, waits for them, and returns the errors of
// workers that stopped on their own.
func (lb *loopback) run(ctx context.Context, tr *span.Tracer, id int) (stop func() error) {
	wctx, cancel := context.WithCancel(ctx)
	// errs keeps the errors of workers that stopped before cancel.
	errs := make([]error, len(lb.workers))
	var wg sync.WaitGroup
	for i, w := range lb.workers {
		ws := tr.Start("worker", span.SpanContext{}, span.Int("job", id), span.Str("worker", w.ID))
		if lb.rpcs != nil {
			lb.rpcs[i].parent = ws.Context()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); wctx.Err() == nil {
				errs[i] = err
			}
			ws.End()
		}()
	}
	exited := make(chan struct{})
	waitCtx, stopWait := context.WithCancel(ctx)
	go func() {
		wg.Wait()
		close(exited)
		stopWait() // no worker is left to complete the job
	}()
	_ = lb.c.Wait(waitCtx) // completion is read from Done by the caller
	stopWait()
	return func() error {
		cancel()
		<-exited
		return errors.Join(errs...)
	}
}

// fabricJob is `simd coordinate` with two `simd work` workers, all in
// this process over a loopback listener.
func fabricJob(ctx context.Context, spec fabric.JobSpec, tr *span.Tracer, id int) (res jobResult, err error) {
	res.chunks = sim.NumChunks(spec.Trials)
	start := time.Now()
	root := tr.Start("job", span.SpanContext{}, span.Int("job", id))
	var lb *loopback
	err = bracket(tr, root, "setup", func() (err error) {
		lb, err = startLoopback(ctx, spec, tr, id)
		return err
	})
	if err != nil {
		root.End()
		return res, err
	}
	defer func() {
		if cerr := lb.close(); err == nil {
			err = cerr
		}
	}()
	sp := tr.Start("fabric.wait", root.Context())
	stop := lb.run(ctx, tr, id)
	sp.End()
	var (
		est string
		rep sim.RunReport
	)
	err = bracket(tr, root, "sim.merge.finalize", func() (err error) {
		if !lb.c.Done() {
			return errors.New("fabric: workers stopped before the job completed")
		}
		est, rep, err = lb.c.Finalize(ctx)
		return err
	})
	if err == nil {
		err = bracket(tr, root, "check", func() error {
			line, err := answerLine(lb.c.Job(), est, rep.Checkpoint)
			if err != nil {
				return err
			}
			return checkAnswer("fabric-loopback", spec.Seed, line)
		})
	}
	res.dur = time.Since(start)
	root.End()
	if serr := stop(); err == nil && serr != nil {
		err = fmt.Errorf("fabric worker: %w", serr)
	}
	if err != nil {
		return res, err
	}
	res.work = rep.Completed
	res.heap = liveHeap()
	if tr != nil {
		if res.workerSpans, err = lb.workerSpans(); err != nil {
			return res, fmt.Errorf("worker trace: %w", err)
		}
		st := lb.c.Status()
		res.layers = map[string]float64{
			"fabric.useful_chunk_frac": float64(st.ChunksDone) / float64(st.ChunksDone+int(st.DuplicatesDropped)),
			"fabric.leases_expired":    float64(st.LeasesExpired),
		}
	}
	return res, nil
}

// statusCancelled marks an RPC span whose request the harness cancelled
// when it stopped the workers after the job; it is not an HTTP error.
const statusCancelled = -1

// rpcSpans is a timing http.RoundTripper for a worker's client: one
// "rpc.<path>" span per request, ended when the response body is
// closed, carrying the request's body bytes and the response status
// (0 on a transport error).
type rpcSpans struct {
	base   http.RoundTripper
	tr     *span.Tracer
	parent span.SpanContext
}

func (t *rpcSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.Start("rpc."+path.Base(req.URL.Path), t.parent, span.Int64("bytes", req.ContentLength))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		status := 0
		if req.Context().Err() != nil {
			status = statusCancelled
		}
		sp.End(span.Int("status", status))
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { sp.End(span.Int("status", resp.StatusCode)) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	end func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

// serveSpans wraps the coordinator's handler with one "serve.<path>"
// root span per request, tagged with the job.
func serveSpans(h http.Handler, tr *span.Tracer, id int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := tr.Start("serve."+path.Base(r.URL.Path), span.SpanContext{}, span.Int("job", id))
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// The exact workload's instance: lrcheck -n 3 -k 2.
const exactN, exactK = 3, 2

// exactSetup times dining.NewAnalysisOpts up to its first explore step:
// with a one-state limit the explorer interns the start state, expands
// it, and stops at its first new successor with pa.ErrLimitExceeded.
func exactSetup() (time.Duration, error) {
	t := time.Now()
	_, err := dining.NewAnalysisOpts(exactN, exactK, dining.Opts{Workers: engineWorkers, Limit: 1})
	d := time.Since(t)
	if errors.Is(err, pa.ErrLimitExceeded) {
		return d, nil
	}
	if err == nil {
		err = errors.New("dining: a one-state limit did not stop the explorer")
	}
	return d, err
}

// exactJob is the lrcheck text path.
func exactJob(_ context.Context, seed int64, tr *span.Tracer, id int) (jobResult, error) {
	var res jobResult
	start := time.Now()
	root := tr.Start("job", span.SpanContext{}, span.Int("job", id))
	line, a, err := exactChain(tr, root)
	if err == nil {
		err = bracket(tr, root, "check", func() error { return checkAnswer("exact-dining", seed, line) })
	}
	res.dur = time.Since(start)
	root.End()
	if err != nil {
		return res, err
	}
	res.work = a.Index.Len()
	res.heap = liveHeap()
	if tr != nil {
		res.layers = map[string]float64{
			"mdp.states":          float64(a.Index.Len()),
			"mdp.bytes_per_state": float64(a.MDP.CSR().MemFootprint()) / float64(a.Index.Len()),
		}
	}
	runtime.KeepAlive(a)
	return res, nil
}

// exactChain runs lrcheck's calls in its order, each in its own span
// under root, and renders the answers as one line: product size, the
// five arrows' verdicts and worst probabilities, the derived and direct
// composed claim, the recurrence bound, the worst and best expected
// times, and the qualitative baseline.
func exactChain(tr *span.Tracer, root *span.Span) (string, *dining.Analysis, error) {
	var (
		a                 *dining.Analysis
		chain             []core.CheckResult[dining.PState]
		proof             *core.Proof[dining.PState]
		direct            core.CheckResult[dining.PState]
		loop, bound       prob.Rat
		worst, best       float64
		total, almostSure int
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"mdp.explore", func() (err error) {
			a, err = dining.NewAnalysisOpts(exactN, exactK, dining.Opts{Workers: engineWorkers})
			return err
		}},
		{"core.chain", func() (err error) {
			chain, err = a.CheckPaperChain()
			return err
		}},
		{"core.proof", func() (err error) {
			proof, err = a.BuildPaperProof()
			if err == nil {
				_ = proof.Render()
			}
			return err
		}},
		{"core.direct", func() (err error) {
			direct, err = core.CheckStatement(a.MDP, a.Index, a.ComposedStatement())
			return err
		}},
		{"core.recurrence", func() (err error) {
			if loop, err = a.RetryLoop().ExpectedTime(); err != nil {
				return err
			}
			bound, err = a.ExpectedTimeBound()
			return err
		}},
		{"mdp.expected", func() (err error) {
			if worst, _, err = a.WorstExpectedTime(); err != nil {
				return err
			}
			best, err = a.BestExpectedTime()
			return err
		}},
		{"mdp.qualitative", func() error {
			total, almostSure = a.QualitativeProgress()
			return nil
		}},
	}
	for _, s := range steps {
		if err := bracket(tr, root, s.name, s.f); err != nil {
			return "", nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	line := fmt.Sprintf("n=%d k=%d states=%d arrows=", exactN, exactK, a.Index.Len())
	for i, r := range chain {
		if i > 0 {
			line += ","
		}
		verdict := "HOLDS"
		if !r.Holds {
			verdict = "FAILS"
		}
		line += fmt.Sprintf("%s:%v", verdict, r.WorstProb)
	}
	line += fmt.Sprintf(" proof=%v direct=%v holds=%t loop=%v bound=%v worst=%v best=%v qualitative=%d/%d",
		proof.Stmt.Prob, direct.WorstProb, direct.Holds, loop, bound, worst, best, almostSure, total)
	return line, a, nil
}
