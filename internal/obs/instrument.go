package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Config selects the observability of one CLI run. The zero value means
// "nothing requested": Setup returns nil and the run pays only a nil check
// per trial.
type Config struct {
	// Tool, Seed, Options, Resume populate the manifest's RunMeta.
	Tool    string
	Seed    int64
	Options map[string]string
	Resume  string
	// TotalTrials is the overall trial budget, for ETA.
	TotalTrials int
	// Progress > 0 emits a progress line to stderr at that interval.
	Progress time.Duration
	// MetricsOut, when set, receives the final registry snapshot as JSON.
	MetricsOut string
	// Manifest, when set, receives the JSONL event log.
	Manifest string
	// Pprof, when set, serves /debug/pprof, /debug/vars and
	// /debug/metrics on that address for the duration of the run.
	Pprof string
}

func (c Config) active() bool {
	return c.Progress > 0 || c.MetricsOut != "" || c.Manifest != "" || c.Pprof != ""
}

// Instrumentation bundles the live observability of one CLI run: the
// registry and engine hook, the optional progress reporter, manifest
// writer and debug server. A nil *Instrumentation is valid and inert, so
// callers write `ins.PhaseDone(...)` unconditionally.
type Instrumentation struct {
	Registry *Registry
	Sim      *SimMetrics
	Manifest *ManifestWriter

	reporter     *ProgressReporter
	debug        *DebugServer
	manifestFile *os.File
	metricsFile  *MetricsFile
}

// Setup validates the requested sinks up front — creating the manifest and
// metrics files, binding the pprof address — and starts the progress
// reporter. An unwritable path or unbindable address is an error here,
// before any trial runs. When cfg requests nothing, Setup returns
// (nil, nil): the inert instrumentation.
func Setup(cfg Config) (*Instrumentation, error) {
	if !cfg.active() {
		return nil, nil
	}
	ins := &Instrumentation{Registry: NewRegistry()}
	ins.Sim = NewSimMetrics(ins.Registry, cfg.TotalTrials)

	ok := false
	defer func() {
		if !ok {
			ins.teardown()
		}
	}()

	if cfg.Manifest != "" {
		f, err := os.Create(cfg.Manifest)
		if err != nil {
			return nil, fmt.Errorf("-manifest: %w", err)
		}
		ins.manifestFile = f
		ins.Manifest = NewManifestWriter(f, RunMeta{
			Tool:    cfg.Tool,
			Version: Version(),
			Seed:    cfg.Seed,
			Options: cfg.Options,
			Resume:  cfg.Resume,
		})
	}
	mf, err := CreateMetricsFile(cfg.MetricsOut)
	if err != nil {
		return nil, err
	}
	ins.metricsFile = mf
	if cfg.Pprof != "" {
		d, err := ServeDebug(cfg.Pprof, ins.Registry)
		if err != nil {
			return nil, err
		}
		ins.debug = d
		fmt.Fprintf(os.Stderr, "%s: profiling at http://%s/debug/pprof/ (metrics at /debug/metrics)\n", cfg.Tool, d.Addr)
	}
	if cfg.Progress > 0 || ins.Manifest != nil {
		var w io.Writer = os.Stderr
		if cfg.Progress <= 0 {
			// Manifest-only runs still sample progress for the artifact,
			// at a coarse default, without printing anything.
			cfg.Progress = time.Second
			w = nil
		}
		ins.reporter = NewProgressReporter(w, cfg.Progress, ins.Sim, ins.Manifest)
		ins.reporter.Start()
	}
	ok = true
	return ins, nil
}

// Metrics returns the engine hook, or nil on an inert instrumentation —
// callers assign it only when non-nil, so the engine's disabled path stays
// a plain nil interface.
func (ins *Instrumentation) Metrics() *SimMetrics {
	if ins == nil {
		return nil
	}
	return ins.Sim
}

// AddBudget grows the trial budget behind the ETA.
func (ins *Instrumentation) AddBudget(trials int) {
	if ins != nil {
		ins.Sim.AddBudget(trials)
	}
}

// PhaseStart records a phase start in the manifest, if one is being
// written.
func (ins *Instrumentation) PhaseStart(name string) {
	if ins != nil && ins.Manifest != nil {
		ins.Manifest.PhaseStart(name)
	}
}

// PhaseDone records a phase end in the manifest, if one is being written.
func (ins *Instrumentation) PhaseDone(name, estimate, report string, err error) {
	if ins != nil && ins.Manifest != nil {
		ins.Manifest.PhaseDone(name, estimate, report, err)
	}
}

// teardown releases every sink without emitting final records.
func (ins *Instrumentation) teardown() {
	if ins.reporter != nil {
		ins.reporter.Stop()
	}
	if ins.debug != nil {
		ins.debug.Close()
	}
	if ins.manifestFile != nil {
		ins.manifestFile.Close()
	}
	if ins.metricsFile != nil {
		ins.metricsFile.f.Close()
	}
}

// Close finalizes the run: stops the reporter (emitting a last progress
// sample), writes the metrics snapshot to -metrics-out, closes the
// manifest with the snapshot and the run's outcome, and shuts the debug
// server down. It reports the first sink error — runErr itself is the
// caller's to return.
func (ins *Instrumentation) Close(runErr error) error {
	if ins == nil {
		return nil
	}
	if ins.reporter != nil {
		ins.reporter.Stop()
		ins.reporter = nil
	}
	snap := ins.Registry.Snapshot()
	firstErr := ins.metricsFile.Write(snap)
	ins.metricsFile = nil
	if ins.Manifest != nil {
		err := ins.Manifest.Close(&snap, runErr)
		if serr := ins.manifestFile.Sync(); err == nil {
			err = serr
		}
		if cerr := ins.manifestFile.Close(); err == nil {
			err = cerr
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("-manifest: %w", err)
		}
		ins.Manifest, ins.manifestFile = nil, nil
	}
	if ins.debug != nil {
		ins.debug.Close()
		ins.debug = nil
	}
	return firstErr
}

// MetricsFile is the -metrics-out sink of a run. The file is created when
// the run starts, so an unwritable path fails before any work. A nil
// *MetricsFile writes nothing.
type MetricsFile struct{ f *os.File }

// CreateMetricsFile creates the -metrics-out file, or returns nil when
// path is empty.
func CreateMetricsFile(path string) (*MetricsFile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-metrics-out: %w", err)
	}
	return &MetricsFile{f: f}, nil
}

// Write stores snap as indented JSON, fsyncs and closes the file. Only
// the first call writes.
func (m *MetricsFile) Write(snap Snapshot) error {
	if m == nil || m.f == nil {
		return nil
	}
	f := m.f
	m.f = nil
	data, err := json.MarshalIndent(snap, "", " ")
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	// Fsync before close: the metrics snapshot is a run artifact, and a
	// post-run crash must not be able to take it with it.
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("-metrics-out: %w", err)
	}
	return nil
}
