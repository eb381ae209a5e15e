package lclgrid

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the fleet's dependency-free distributed tracing: a
// Trace/Span model with W3C traceparent propagation, so one request
// entering the gateway, the shard that serves it, and the cachesvc
// lease/blob calls it triggers all share a single trace id. Completed
// traces land in a bounded in-memory ring buffer (TraceBuffer) exposed
// at GET /debug/traces on every fleet process; the trace id is echoed
// as an X-Trace-Id response header, on JSONL batch lines, and in error
// bodies so clients can quote it in bug reports.
//
// The design is context-first: spans ride context.Context through the
// seams that already have one (HTTP middleware, plan execution,
// synthesis, remote-cache coordination). Every Span method is nil-safe —
// code on an untraced path (CLI solves, warm sweeps, benchmarks without
// a buffer) calls straight through at near-zero cost.

// TraceparentHeader is the W3C trace-context propagation header
// ("00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>").
const TraceparentHeader = "Traceparent"

// TraceIDHeader is the response header echoing the request's trace id.
const TraceIDHeader = "X-Trace-Id"

// Trace is one request's span collection. A Trace is created at the
// process boundary (StartTrace for a fresh trace, JoinTrace when a
// traceparent header carries one in), grows spans via StartSpan on the
// request's context, and is deposited into a TraceBuffer by Finish.
// All methods are safe for concurrent use — batch fan-out and racing
// syntheses start spans from many goroutines at once.
type Trace struct {
	mu      sync.Mutex
	id      string
	service string
	parent  string // remote parent span id; "" when this process started the trace
	root    *Span
	spans   []*Span
}

// Span is one timed operation inside a Trace. The zero of everything —
// a nil *Span — is a valid no-op span, so instrumentation sites never
// need to guard for the untraced case.
type Span struct {
	tr      *Trace
	id      string
	parent  string
	name    string
	start   time.Time
	elapsed time.Duration
	ended   bool
	errMsg  string
	attrs   []string // flat key/value pairs; rendered to a map at document time
}

// newHexID returns 2n random hex characters (the traceparent id
// alphabet). math/rand/v2's ChaCha8 generator is seeded from system
// entropy and costs no syscall per id — ids need uniqueness, not
// secrecy, and a crypto/rand read per span is measurable on the ~100µs
// cached-solve path.
func newHexID(n int) string {
	const hexDigits = "0123456789abcdef"
	buf := make([]byte, 2*n)
	for i := 0; i < len(buf); i += 16 {
		v := rand.Uint64()
		for j := 0; j < 16 && i+j < len(buf); j++ {
			buf[i+j] = hexDigits[v&0xf]
			v >>= 4
		}
	}
	// The all-zero id is the spec's invalid value; vanishingly unlikely,
	// trivially avoided.
	zero := true
	for _, c := range buf {
		if c != '0' {
			zero = false
			break
		}
	}
	if zero {
		buf[0] = '1'
	}
	return string(buf)
}

// StartTrace begins a fresh trace rooted at a span named name, owned by
// the named service ("serve", "gateway", "cachesvc").
func StartTrace(service, name string) *Trace {
	return newTrace(service, name, newHexID(16), "")
}

// JoinTrace begins this process's segment of a trace started elsewhere:
// the trace id is shared, the remote caller's span id becomes the root
// span's parent. An invalid trace id falls back to a fresh trace.
func JoinTrace(service, name, traceID, parentSpanID string) *Trace {
	if !isHexID(traceID, 32) {
		return StartTrace(service, name)
	}
	if !isHexID(parentSpanID, 16) {
		parentSpanID = ""
	}
	return newTrace(service, name, traceID, parentSpanID)
}

func newTrace(service, name, id, parent string) *Trace {
	t := &Trace{id: id, service: service, parent: parent}
	root := &Span{tr: t, id: newHexID(8), parent: parent, name: name, start: time.Now()}
	t.root = root
	t.spans = []*Span{root}
	return t
}

// ID returns the 32-hex-character trace id.
func (t *Trace) ID() string { return t.id }

// Root returns the trace's root span (the one covering the whole
// request in this process).
func (t *Trace) Root() *Span { return t.root }

func (t *Trace) startSpan(name string, parent *Span) *Span {
	sp := &Span{tr: t, id: newHexID(8), name: name, start: time.Now()}
	if parent != nil {
		sp.parent = parent.id
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Finish ends the root span and deposits the trace into buf (nil buf
// skips the deposit). The trace is rendered into a TraceDoc lazily when
// the buffer is read — keeping the per-request cost to a ring insert.
// Spans still running when the trace is read — a batch fan-out
// goroutine draining after the client went away — appear in the
// document marked unfinished.
func (t *Trace) Finish(buf *TraceBuffer) {
	t.root.End()
	buf.Add(t)
}

// rootElapsed returns the root span's elapsed time (live while it is
// still running).
func (t *Trace) rootElapsed() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.ended {
		return t.root.elapsed
	}
	return time.Since(t.root.start)
}

// document snapshots the span set as a parent→children tree.
func (t *Trace) document() *TraceDoc {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.root.start
	byID := make(map[string]*SpanDoc, len(t.spans))
	for _, sp := range t.spans {
		d := &SpanDoc{
			ID:      sp.id,
			Name:    sp.name,
			StartMS: durationMS(sp.start.Sub(base)),
			Error:   sp.errMsg,
		}
		if sp.ended {
			d.ElapsedMS = durationMS(sp.elapsed)
		} else {
			d.ElapsedMS = durationMS(time.Since(sp.start))
			d.Unfinished = true
		}
		if len(sp.attrs) > 0 {
			d.Attrs = make(map[string]string, len(sp.attrs)/2)
			for i := 0; i+1 < len(sp.attrs); i += 2 {
				d.Attrs[sp.attrs[i]] = sp.attrs[i+1]
			}
		}
		byID[sp.id] = d
	}
	var roots []*SpanDoc
	for _, sp := range t.spans { // creation order keeps children chronological
		d := byID[sp.id]
		if p, ok := byID[sp.parent]; ok && sp.parent != sp.id {
			p.Children = append(p.Children, d)
		} else {
			roots = append(roots, d)
		}
	}
	return &TraceDoc{
		TraceID:   t.id,
		Parent:    t.parent,
		Service:   t.service,
		Name:      t.root.name,
		Start:     t.root.start,
		ElapsedMS: byID[t.root.id].ElapsedMS,
		Spans:     roots,
	}
}

// End stamps the span's elapsed time. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.elapsed = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetAttr records a key/value attribute on the span (a repeated key
// wins with its last value when the trace is documented). Safe on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, key, value)
	s.tr.mu.Unlock()
}

// SetError records err's message on the span; nil err (and nil span)
// are no-ops.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	s.errMsg = err.Error()
	s.tr.mu.Unlock()
}

// TraceID returns the span's trace id ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Traceparent renders the span as a W3C traceparent header value ("" on
// nil) — what an outbound HTTP request carries so the callee joins this
// trace as a child of this span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return "00-" + s.tr.id + "-" + s.id + "-01"
}

// ParseTraceparent splits a W3C traceparent header value into its trace
// and parent-span ids. Only version 00 with non-zero ids is accepted.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !isHexID(traceID, 32) || !isHexID(spanID, 16) || !isHex(h[53:], 2) {
		return "", "", false
	}
	return traceID, spanID, true
}

// isHexID reports whether s is exactly n lowercase-hex characters and
// not all zero (the traceparent spec's invalid id).
func isHexID(s string, n int) bool {
	return isHex(s, n) && strings.Trim(s, "0") != ""
}

// isHex reports whether s is exactly n lowercase-hex characters. The
// trace-flags field is checked with it alone: flags 00 (not sampled)
// are valid.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if ch := s[i]; (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// --- context plumbing -------------------------------------------------------

type spanContextKey struct{}

// ContextWithSpan returns ctx carrying s as the current span (ctx
// unchanged when s is nil).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanContextKey{}, s)
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanContextKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's current span and returns a
// context carrying it. On an untraced context it returns (ctx, nil) —
// and every method of a nil span is a no-op, so call sites need no
// guard.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.startSpan(name, parent)
	return context.WithValue(ctx, spanContextKey{}, sp), sp
}

// TraceIDFromContext returns the context's trace id ("" when untraced) —
// what error bodies and JSONL batch lines stamp as trace_id.
func TraceIDFromContext(ctx context.Context) string {
	return SpanFromContext(ctx).TraceID()
}

// injectTraceparent stamps the context's current span onto an outbound
// request's headers; no-op on an untraced context.
func injectTraceparent(ctx context.Context, h http.Header) {
	if tp := SpanFromContext(ctx).Traceparent(); tp != "" {
		h.Set(TraceparentHeader, tp)
	}
}

// traceForRequest starts this process's trace for an inbound HTTP
// request: joining the caller's trace when a valid traceparent header
// is present, starting a fresh one otherwise.
func traceForRequest(service, name string, r *http.Request) *Trace {
	if tid, sid, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		return JoinTrace(service, name, tid, sid)
	}
	return StartTrace(service, name)
}

// --- completed-trace documents ----------------------------------------------

// TraceDoc is one completed trace as served by GET /debug/traces: the
// identity, the owning service, and the span tree.
type TraceDoc struct {
	TraceID string `json:"trace_id"`
	// Parent is the remote caller's span id when this trace segment was
	// joined from a traceparent header.
	Parent  string    `json:"parent,omitempty"`
	Service string    `json:"service"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	// ElapsedMS is the root span's wall-clock duration in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Spans is the span tree; the first element is the root span.
	Spans []*SpanDoc `json:"spans"`
}

// SpanDoc is one span of a TraceDoc. StartMS is the offset from the
// trace's start.
type SpanDoc struct {
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	StartMS   float64           `json:"start_ms"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Error     string            `json:"error,omitempty"`
	// Unfinished marks a span still running when the trace was
	// deposited (a fan-out goroutine draining past the response).
	Unfinished bool       `json:"unfinished,omitempty"`
	Children   []*SpanDoc `json:"children,omitempty"`
}

// durationMS renders a duration as milliseconds with microsecond
// precision.
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// --- the ring buffer --------------------------------------------------------

// DefaultTraceBufferSize is the ring capacity NewTraceBuffer uses when
// given a non-positive one.
const DefaultTraceBufferSize = 256

// TraceBuffer is a bounded ring of completed traces: the storage behind
// GET /debug/traces. Adding past capacity evicts the oldest trace and
// counts it as dropped — observability must never grow without bound.
// All methods are safe for concurrent use, and a nil *TraceBuffer is a
// valid no-op sink.
type TraceBuffer struct {
	mu      sync.Mutex
	ring    []*Trace
	next    int
	count   int
	added   uint64
	dropped uint64
	logger  *slog.Logger
	slow    time.Duration
}

// NewTraceBuffer returns a ring buffer retaining the last capacity
// completed traces (DefaultTraceBufferSize when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceBufferSize
	}
	return &TraceBuffer{ring: make([]*Trace, capacity)}
}

// SetLogger attaches a structured logger: every deposited trace logs a
// Debug "request" line carrying trace_id/span correlation fields, and a
// trace slower than slowThreshold logs a Warn "slow request" line with
// its full span tree (0 disables the slow path).
func (b *TraceBuffer) SetLogger(l *slog.Logger, slowThreshold time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.logger = l
	b.slow = slowThreshold
	b.mu.Unlock()
}

// Add deposits a completed trace, evicting the oldest when full. Safe
// on a nil buffer (the untraced configuration).
func (b *TraceBuffer) Add(tr *Trace) {
	if b == nil || tr == nil {
		return
	}
	b.mu.Lock()
	if b.ring[b.next] != nil {
		b.dropped++
	}
	b.ring[b.next] = tr
	b.next = (b.next + 1) % len(b.ring)
	if b.count < len(b.ring) {
		b.count++
	}
	b.added++
	logger, slow := b.logger, b.slow
	b.mu.Unlock()
	if logger == nil {
		return
	}
	elapsed := tr.rootElapsed()
	slowHit := slow > 0 && elapsed >= slow
	if !slowHit && !logger.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	attrs := []any{
		slog.String("trace_id", tr.id),
		slog.String("service", tr.service),
		slog.String("span", tr.root.name),
		slog.Float64("elapsed_ms", durationMS(elapsed)),
	}
	if slowHit {
		tree, _ := json.Marshal(tr.document().Spans)
		attrs = append(attrs, slog.String("slow_threshold", slow.String()), slog.String("spans", string(tree)))
		logger.Warn("slow request", attrs...)
		return
	}
	logger.Debug("request", attrs...)
}

// Stats returns the lifetime deposit and eviction counts (the
// lclgrid_traces_total / lclgrid_traces_dropped_total series).
func (b *TraceBuffer) Stats() (added, dropped uint64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.added, b.dropped
}

// Len returns the number of traces currently retained.
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Snapshot returns the retained traces rendered as documents, newest
// first, keeping only those at least min long (min <= 0 keeps
// everything). Rendering happens here, at read time, not on the
// request path.
func (b *TraceBuffer) Snapshot(min time.Duration) []*TraceDoc {
	if b == nil {
		return nil
	}
	minMS := durationMS(min)
	b.mu.Lock()
	traces := make([]*Trace, 0, b.count)
	for i := 1; i <= b.count; i++ {
		if tr := b.ring[((b.next-i)%len(b.ring)+len(b.ring))%len(b.ring)]; tr != nil {
			traces = append(traces, tr)
		}
	}
	b.mu.Unlock()
	out := make([]*TraceDoc, 0, len(traces))
	for _, tr := range traces {
		doc := tr.document()
		if doc.ElapsedMS < minMS {
			continue
		}
		out = append(out, doc)
	}
	return out
}

// TracesPage is the GET /debug/traces response document.
type TracesPage struct {
	// Count is the number of traces returned (after the min_ms filter).
	Count int `json:"count"`
	// Added and Dropped are the buffer's lifetime deposit and eviction
	// counts; Dropped > 0 means the window slid past older traces.
	Added   uint64      `json:"added"`
	Dropped uint64      `json:"dropped"`
	Traces  []*TraceDoc `json:"traces"`
}

// Handler serves the buffer as GET /debug/traces: the retained traces
// newest first, ?min_ms=N keeping only traces at least N milliseconds
// long (the slow-request filter).
func (b *TraceBuffer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("lclgrid: %s not allowed on /debug/traces", r.Method))
			return
		}
		var min time.Duration
		if raw := r.URL.Query().Get("min_ms"); raw != "" {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil || v < 0 {
				httpError(w, r, http.StatusBadRequest, fmt.Errorf("lclgrid: bad min_ms %q", raw))
				return
			}
			min = time.Duration(v * float64(time.Millisecond))
		}
		traces := b.Snapshot(min)
		added, dropped := b.Stats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(TracesPage{Count: len(traces), Added: added, Dropped: dropped, Traces: traces})
	})
}
