// Package span is the repo's distributed tracing layer: a lightweight,
// allocation-conscious Tracer/Span pair whose finished spans stream to
// JSONL in the run-manifest event schema (obs.Event with the "span"
// kind), plus the analysis that turns a pile of per-process trace files
// into one causally-ordered timeline (see timeline.go and cmd/simtrace).
//
// Design rules:
//
//   - Disabled tracing is one nil check. A nil *Tracer starts nil
//     *Spans, and every Span method no-ops on a nil receiver, so
//     instrumented code calls tracer.Start(...)/sp.End(...)
//     unconditionally and pays nothing when the -trace-out flag is off.
//     The engine-facing chunk hook (ChunkSpans) is gated the same way:
//     sim.ParallelOptions.SpanHooks stays a nil interface unless a
//     tracer exists.
//
//   - Spans are cold-path. One span per lease, chunk, RPC or merge —
//     never per trial. The per-trial hot loop is segmented for
//     profilers by pprof labels (ParallelOptions.PprofLabels) instead,
//     which cost one goroutine-label swap per worker goroutine.
//
//   - Time flows through fault.Clock. Wall timestamps come from the
//     injected clock, so tests drive a FakeClock and get bit-identical
//     trace files; durations additionally use Go's monotonic reading
//     when the clock is the wall clock, so spans measure elapsed time
//     even across wall-clock steps.
//
//   - IDs are deterministic. A span's ID is "<service>-<seq>" from a
//     per-tracer counter; services (the coordinator, each worker) are
//     unique per process, so merged trace files never collide and a
//     fixed scenario yields stable IDs.
//
// Trace context crosses the fabric's HTTP/JSON RPCs in two headers:
// X-Trace-Id carries the job's trace and X-Parent-Span the causal
// parent (the coordinator's lease span on a grant; the worker's lease
// span on heartbeat/result uploads). Inject/Extract are the only two
// functions either side needs.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Trace-context propagation headers (see Inject/Extract).
const (
	HeaderTraceID    = "X-Trace-Id"
	HeaderParentSpan = "X-Parent-Span"
)

// SpanContext names a span for propagation: the trace it belongs to and
// its span ID, the pair a child on the other side of an RPC needs to
// parent under it. The zero value means "no parent" (a root span).
type SpanContext struct {
	Trace string
	Span  string
}

// Inject writes sc into HTTP headers (request headers on the client
// side, response headers on the server side — the fabric uses both
// directions). Empty fields are omitted.
func Inject(sc SpanContext, h http.Header) {
	if sc.Trace != "" {
		h.Set(HeaderTraceID, sc.Trace)
	}
	if sc.Span != "" {
		h.Set(HeaderParentSpan, sc.Span)
	}
}

// Extract reads a SpanContext from HTTP headers; absent headers yield
// empty fields (a root span on this side).
func Extract(h http.Header) SpanContext {
	return SpanContext{Trace: h.Get(HeaderTraceID), Span: h.Get(HeaderParentSpan)}
}

// Attr is one typed key/value attribute on a span. Construct with Str,
// Int, Float or Bool; it marshals as {"k":key,"v":value} and preserves
// the JSON type. Attributes parsed back from a trace file report
// numbers through Float64/Int64 (JSON numbers decode as float64).
type Attr struct {
	Key string

	kind attrKind
	str  string
	num  int64
	flt  float64
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Str returns a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, kind: attrString, str: v} }

// Int returns an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: attrInt, num: int64(v)} }

// Int64 returns an integer attribute from an int64.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, num: v} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, flt: v} }

// Bool returns a boolean attribute (marshaled as 0/1 through Int64 on
// read-back; stored as true/false JSON).
func Bool(k string, v bool) Attr {
	n := int64(0)
	if v {
		n = 1
	}
	return Attr{Key: k, kind: attrBool, num: n}
}

// Value returns the attribute's value as the natural Go type.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.num
	case attrFloat:
		return a.flt
	case attrBool:
		return a.num != 0
	default:
		return a.str
	}
}

// Str64 returns the string value ("" for non-string attributes).
func (a Attr) Str64() string { return a.str }

// Int64Value returns the value as an int64 (floats truncate; strings
// are 0) — the accessor the timeline analysis uses for chunk indices.
func (a Attr) Int64Value() int64 {
	if a.kind == attrFloat {
		return int64(a.flt)
	}
	return a.num
}

// Float64 returns the value as a float64 (strings are 0).
func (a Attr) Float64() float64 {
	if a.kind == attrFloat {
		return a.flt
	}
	return float64(a.num)
}

type attrJSON struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// MarshalJSON implements json.Marshaler as {"k":key,"v":value}.
func (a Attr) MarshalJSON() ([]byte, error) {
	v, err := json.Marshal(a.Value())
	if err != nil {
		return nil, err
	}
	return json.Marshal(attrJSON{K: a.Key, V: v})
}

// UnmarshalJSON implements json.Unmarshaler: strings, booleans and
// numbers come back typed (all JSON numbers decode as float unless they
// parse exactly as int64).
func (a *Attr) UnmarshalJSON(data []byte) error {
	var aj attrJSON
	if err := json.Unmarshal(data, &aj); err != nil {
		return err
	}
	a.Key = aj.K
	var n int64
	if err := json.Unmarshal(aj.V, &n); err == nil {
		*a = Attr{Key: aj.K, kind: attrInt, num: n}
		return nil
	}
	var f float64
	if err := json.Unmarshal(aj.V, &f); err == nil {
		*a = Attr{Key: aj.K, kind: attrFloat, flt: f}
		return nil
	}
	var b bool
	if err := json.Unmarshal(aj.V, &b); err == nil {
		*a = Bool(aj.K, b)
		return nil
	}
	var s string
	if err := json.Unmarshal(aj.V, &s); err != nil {
		return fmt.Errorf("span: attribute %q has unsupported value %s", aj.K, aj.V)
	}
	*a = Str(aj.K, s)
	return nil
}

// Record is one finished span as it appears on disk. Wall time anchors
// the span across processes (StartUnixNs); MonoNs orders spans within a
// process even when the wall clock is frozen (a FakeClock) or steps;
// DurNs is measured with the monotonic reading where available.
type Record struct {
	Trace   string `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Service string `json:"svc,omitempty"`
	// StartUnixNs is the wall-clock start; MonoNs is nanoseconds since
	// the tracer was created (monotonic within one process).
	StartUnixNs int64  `json:"start_unix_ns"`
	MonoNs      int64  `json:"mono_ns"`
	DurNs       int64  `json:"dur_ns"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// EndUnixNs is the wall-clock end of the span.
func (r *Record) EndUnixNs() int64 { return r.StartUnixNs + r.DurNs }

// Attr returns the named attribute's value and whether it is present.
func (r *Record) Attr(key string) (Attr, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// AttrStr returns the named string attribute ("" when absent).
func (r *Record) AttrStr(key string) string {
	a, _ := r.Attr(key)
	return a.Str64()
}

// AttrInt returns the named attribute as an int64 (0 when absent).
func (r *Record) AttrInt(key string) int64 {
	a, _ := r.Attr(key)
	return a.Int64Value()
}

// event mirrors the manifest Event envelope (obs.Event) for the one
// kind this package writes. Keeping the shape here rather than
// importing obs preserves the dependency direction: obs imports span to
// parse "span" events back out of mixed manifests.
type event struct {
	Event      string  `json:"event"`
	TimeUnixNs int64   `json:"time_unix_ns"`
	Span       *Record `json:"span"`
}

// EventKind is the manifest event kind under which spans are recorded.
const EventKind = "span"

// Options configures a Tracer.
type Options struct {
	// Service names this process's spans and prefixes their IDs — the
	// coordinator uses "coord", workers their worker ID. Required to be
	// unique across the processes of one trace for IDs to merge cleanly.
	Service string
	// Clock is the wall-time source; nil means the wall clock. Tests
	// inject a fault.FakeClock for bit-identical trace files.
	Clock fault.Clock
}

// Tracer creates spans and streams each finished one as a JSONL event.
// All methods are safe for concurrent use. A nil *Tracer is the
// disabled tracer: Start returns a nil *Span and nothing is written.
type Tracer struct {
	service string
	clock   fault.Clock
	start   time.Time
	seq     atomic.Int64

	mu      sync.Mutex
	trace   string
	buf     *bufio.Writer
	scratch []byte
	closed  bool
	file    io.Closer
	werr    error
}

// New returns a Tracer writing finished spans to w. The caller owns w;
// Close flushes buffering but does not close it.
func New(w io.Writer, opts Options) *Tracer {
	clock := opts.Clock
	if clock == nil {
		clock = fault.Wall
	}
	service := opts.Service
	if service == "" {
		service = fmt.Sprintf("proc-%d", os.Getpid())
	}
	start := clock.Now()
	// Each tracer starts a trace named after its service and start time;
	// a worker joins the coordinator's through AdoptTrace.
	return &Tracer{
		service: service,
		clock:   clock,
		start:   start,
		trace:   fmt.Sprintf("%s-%x", service, start.UnixNano()),
		buf:     bufio.NewWriter(w),
	}
}

// Open creates (truncating) path and returns a Tracer writing to it;
// Close then also closes the file. The convenience constructor behind
// every -trace-out flag.
func Open(path string, opts Options) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("span: creating trace file: %w", err)
	}
	t := New(f, opts)
	t.file = f
	return t, nil
}

// TraceID returns the tracer's current trace ID. Nil-safe ("").
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace
}

// AdoptTrace switches the tracer onto an existing trace — a worker
// adopting the coordinator's trace from the first response header it
// sees. Spans ended after adoption carry the adopted ID (the trace
// field is stamped at End, not Start). Empty IDs and nil tracers no-op.
func (t *Tracer) AdoptTrace(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

// Start begins a span under parent (SpanContext{} for a root). The
// returned *Span is owned by one goroutine; End writes it. On a nil
// tracer Start returns nil, and all Span methods no-op on nil.
func (t *Tracer) Start(name string, parent SpanContext, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	now := t.clock.Now()
	return &Span{
		t:     t,
		start: now,
		rec: Record{
			ID:          fmt.Sprintf("%s-%d", t.service, t.seq.Add(1)),
			Parent:      parent.Span,
			Name:        name,
			Service:     t.service,
			StartUnixNs: now.UnixNano(),
			MonoNs:      now.Sub(t.start).Nanoseconds(),
			Attrs:       attrs,
		},
	}
}

// write streams one finished record. The JSON is appended by hand (see
// appendEvent) rather than through encoding/json: span writes happen on
// the engine's worker goroutines between chunks, and the reflective
// encoder's per-span cost was the bulk of the tracing overhead budget
// (BenchmarkSpanOverhead gates it at 2%).
func (t *Tracer) write(rec *Record) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.werr != nil || t.closed {
		return
	}
	rec.Trace = t.trace
	b := appendEvent(t.scratch[:0], now.UnixNano(), rec)
	t.scratch = b[:0]
	if _, err := t.buf.Write(b); err != nil {
		t.werr = err
	}
}

// Close flushes buffered spans (and closes the file when the tracer was
// built with Open), returning the first write error. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.werr
	}
	t.closed = true
	if err := t.buf.Flush(); err != nil && t.werr == nil {
		t.werr = err
	}
	if t.file != nil {
		if err := t.file.Close(); err != nil && t.werr == nil {
			t.werr = err
		}
	}
	return t.werr
}

// Span is one in-flight span. It is owned by the goroutine that started
// it (Annotate/End are not synchronized between goroutines); a nil
// *Span — from a nil tracer — ignores every call.
type Span struct {
	t     *Tracer
	start time.Time
	ended bool
	rec   Record
}

// Context returns the span's propagation context. Nil-safe (zero).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.t.TraceID(), Span: s.rec.ID}
}

// ID returns the span's ID. Nil-safe ("").
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.rec.ID
}

// Annotate appends attributes to the span. Nil-safe.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// End finishes the span, appending any final attributes, and writes it.
// A second End is a no-op, so error paths can End defensively. Nil-safe.
func (s *Span) End(attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
	s.rec.DurNs = s.t.clock.Now().Sub(s.start).Nanoseconds()
	s.t.write(&s.rec)
}

// appendEvent appends one finished span in the manifest event envelope
// ({"event":"span","time_unix_ns":N,"span":{…}}) followed by a newline.
// Hand-rolled so the write path never touches encoding/json's
// reflection; the output parses back through the same Record/Attr
// unmarshalers the reflective encoder fed (asserted by
// TestHandEncodedMatchesEncodingJSON).
func appendEvent(b []byte, nowNs int64, r *Record) []byte {
	b = append(b, `{"event":"span","time_unix_ns":`...)
	b = strconv.AppendInt(b, nowNs, 10)
	b = append(b, `,"span":{"trace":`...)
	b = appendJSONString(b, r.Trace)
	b = append(b, `,"id":`...)
	b = appendJSONString(b, r.ID)
	if r.Parent != "" {
		b = append(b, `,"parent":`...)
		b = appendJSONString(b, r.Parent)
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, r.Name)
	if r.Service != "" {
		b = append(b, `,"svc":`...)
		b = appendJSONString(b, r.Service)
	}
	b = append(b, `,"start_unix_ns":`...)
	b = strconv.AppendInt(b, r.StartUnixNs, 10)
	b = append(b, `,"mono_ns":`...)
	b = strconv.AppendInt(b, r.MonoNs, 10)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, r.DurNs, 10)
	if len(r.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range r.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"k":`...)
			b = appendJSONString(b, a.Key)
			b = append(b, `,"v":`...)
			switch a.kind {
			case attrInt:
				b = strconv.AppendInt(b, a.num, 10)
			case attrFloat:
				if math.IsNaN(a.flt) || math.IsInf(a.flt, 0) {
					b = append(b, '0') // JSON has no NaN/Inf; 0 beats a corrupt line
				} else {
					b = strconv.AppendFloat(b, a.flt, 'g', -1, 64)
				}
			case attrBool:
				if a.num != 0 {
					b = append(b, `true`...)
				} else {
					b = append(b, `false`...)
				}
			default:
				b = appendJSONString(b, a.str)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}', '}', '\n')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping the
// characters JSON requires (quote, backslash, control chars); valid
// UTF-8 passes through unescaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// ReadFile parses one JSONL trace (or mixed manifest) file, returning
// the span records in file order and skipping every other event kind.
// The parse is tolerant the way obs.ReadManifest is: blank lines are
// skipped, unknown kinds ignored; an unparseable line is an error.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("span: opening trace: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Read parses span records from a JSONL stream; see ReadFile.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("span: trace line %d: %w", line, err)
		}
		if e.Event == EventKind && e.Span != nil {
			out = append(out, *e.Span)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("span: reading trace: %w", err)
	}
	return out, nil
}
