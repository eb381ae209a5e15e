package lclgrid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// frontend is the HTTP plumbing Server, Gateway and CacheServer share;
// each of them keeps only its own routes and state. It owns:
//
//   - the instrument wrapper: in-flight gauge, per-path/status counters
//     and latency histogram, plus the trace root for the work routes;
//   - the shed-don't-queue admission gate (429 + Retry-After);
//   - body reading: the size cap (413) and the read deadline, so a
//     client that stalls mid-body cannot park a handler (and its
//     admission slot) forever;
//   - JSON error bodies carrying the trace id (httpError);
//   - GET /healthz, /readyz, /metrics and /debug/traces;
//   - Serve with a bounded graceful drain.
type frontend struct {
	mux     *http.ServeMux
	service string           // trace service name: "serve", "gateway", "cachesvc"
	metrics *MetricsObserver // HTTP series; nil records none
	traces  *TraceBuffer     // nil = tracing off
	// tracePrefixes are the route paths that root a trace; probes and
	// scrapes never do, so they cannot evict the traces worth keeping.
	tracePrefixes []string
	// rootByURL names trace roots "METHOD /request/path" instead of by
	// route pattern (cachesvc: one root per blob or lease name).
	rootByURL bool

	inflight chan struct{} // nil = unbounded admission
	maxBody  int64         // <= 0 = no cap
	timeout  time.Duration // request and body-read deadline; 0 = none
	drain    time.Duration
	ready    func() error // nil = always ready
}

// frontendConfig is the option state the three HTTP types share; their
// option functions are setters on it.
type frontendConfig struct {
	metrics     *MetricsObserver
	traces      *TraceBuffer
	maxInflight int
	maxBody     int64
	timeout     time.Duration
	drain       time.Duration
	ready       func() error
}

// newFrontend builds the shared plumbing and mounts the probes. render
// writes the /metrics body; nil renders the HTTP metrics observer
// (created when the config carries none).
func newFrontend(service string, cfg frontendConfig, render func(io.Writer) error) *frontend {
	f := &frontend{
		mux:           http.NewServeMux(),
		service:       service,
		metrics:       cfg.metrics,
		traces:        cfg.traces,
		tracePrefixes: []string{"/v1/"},
		maxBody:       cfg.maxBody,
		timeout:       cfg.timeout,
		drain:         cfg.drain,
		ready:         cfg.ready,
	}
	if f.drain <= 0 {
		f.drain = DefaultDrainTimeout
	}
	if cfg.maxInflight > 0 {
		f.inflight = make(chan struct{}, cfg.maxInflight)
	}
	if render == nil {
		if f.metrics == nil {
			f.metrics = NewMetricsObserver()
		}
		render = f.metrics.WritePrometheus
	}
	// The probes never trace, whatever the owner's trace prefixes.
	f.mux.Handle("GET /healthz", f.instrument("/healthz", false, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	f.mux.Handle("GET /readyz", f.instrument("/readyz", false, func(w http.ResponseWriter, r *http.Request) {
		if f.ready != nil {
			if err := f.ready(); err != nil {
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "error": err.Error()})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}))
	f.mux.Handle("GET /metrics", f.instrument("/metrics", false, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = render(w)
	}))
	if f.traces != nil {
		// Mounted raw — the trace inspector must not disturb the
		// request-metrics series it exists to explain.
		f.mux.Handle("GET /debug/traces", f.traces.Handler())
	}
	return f
}

// ServeHTTP implements http.Handler.
func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// route mounts h on pattern ("METHOD /path") behind the instrument
// wrapper, and behind the admission gate when admit is set. The route
// roots traces when its path is under one of the trace prefixes.
func (f *frontend) route(pattern string, admit bool, h http.HandlerFunc) {
	if admit {
		h = f.admit(h)
	}
	path := pattern[strings.IndexByte(pattern, ' ')+1:]
	traced := false
	for _, p := range f.tracePrefixes {
		traced = traced || strings.HasPrefix(path, p)
	}
	f.mux.Handle(pattern, f.instrument(path, traced, h))
}

// serve accepts connections on l until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests run to
// completion, and only when the drain window expires are the stragglers
// force-closed — which cancels their request contexts, so in-flight
// work aborts at its next checkpoint instead of leaking.
func (f *frontend) serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           f.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()
	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		// The drain window closed with requests still running: force the
		// connections shut. Their request contexts cancel and the handler
		// goroutines unwind.
		hs.Close()
		<-serveErr
		return fmt.Errorf("lclgrid: drain window %v expired with requests still in flight: %w", f.drain, err)
	}
	<-serveErr // hs.Serve has returned http.ErrServerClosed
	return nil
}

// instrument records the HTTP-level metrics for one route: in-flight
// gauge, per-path/status counters and the handler latency histogram.
// With tracing enabled it also roots the request's trace here for a
// traced route — joining the caller's via traceparent, echoing
// X-Trace-Id, and depositing the finished trace (status attribute
// included) into the buffer.
func (f *frontend) instrument(path string, traced bool, next http.HandlerFunc) http.Handler {
	traced = traced && f.traces != nil
	if f.metrics == nil && !traced {
		return next // nothing to record: skip the per-request wrapper
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.metrics != nil {
			f.metrics.httpStart()
		}
		sw := &statusWriter{ResponseWriter: w}
		if traced {
			name := path
			if f.rootByURL {
				name = r.Method + " " + r.URL.Path
			}
			tr := traceForRequest(f.service, name, r)
			sw.Header().Set(TraceIDHeader, tr.ID())
			r = r.WithContext(ContextWithSpan(r.Context(), tr.Root()))
			defer func() {
				tr.Root().SetAttr("status", strconv.Itoa(sw.status()))
				tr.Finish(f.traces)
			}()
		}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if f.metrics != nil {
			f.metrics.httpEnd(path, sw.status(), time.Since(start))
		}
	})
}

// admit gates a handler behind the in-flight admission bound. A request
// that cannot take a slot immediately is rejected with 429 and
// Retry-After — shedding load beats queueing it unboundedly, and the
// client's backoff is the queue.
func (f *frontend) admit(next http.HandlerFunc) http.HandlerFunc {
	if f.inflight == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case f.inflight <- struct{}{}:
			defer func() { <-f.inflight }()
		default:
			if f.metrics != nil {
				f.metrics.httpRejected()
			}
			w.Header().Set("Retry-After", "1")
			httpError(w, r, http.StatusTooManyRequests,
				fmt.Errorf("lclgrid: %s at capacity (max in-flight requests reached); retry after backoff", f.service))
			return
		}
		next(w, r)
	}
}

// requestCtx derives the per-request work context from the connection's,
// carrying the request deadline when one is configured.
func (f *frontend) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if f.timeout > 0 {
		return context.WithTimeout(r.Context(), f.timeout)
	}
	return context.WithCancel(r.Context())
}

// body returns the request body behind the size cap, with the request
// timeout put on the connection's read side. Body reads do not observe
// the request context, so without the deadline a client that sends half
// a document and stalls would park the handler in its read
// indefinitely — holding an admission slot and defeating the in-flight
// bound (the slowloris the admission gate exists to survive).
// Best-effort: a transport without deadline support just keeps the
// context-level timeout.
func (f *frontend) body(w http.ResponseWriter, r *http.Request) io.Reader {
	if f.timeout > 0 {
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(f.timeout))
	}
	if f.maxBody > 0 {
		return http.MaxBytesReader(w, r.Body, f.maxBody)
	}
	return r.Body
}

// readBody buffers the whole request body (see body), writing the HTTP
// error itself when the read fails.
func (f *frontend) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(f.body(w, r))
	if err != nil {
		bodyError(w, r, fmt.Errorf("lclgrid: reading request body: %w", err))
		return nil, false
	}
	return data, true
}

// bodyError answers a failed body read or decode: 413 when the body
// overran the cap, 400 otherwise (a stalled client's read deadline
// included).
func bodyError(w http.ResponseWriter, r *http.Request, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, r, http.StatusRequestEntityTooLarge, fmt.Errorf("lclgrid: request body exceeds %d bytes", mbe.Limit))
		return
	}
	httpError(w, r, http.StatusBadRequest, err)
}

// errorBody is the JSON error document every non-2xx response carries.
// The trace id (present when the request is traced) lets a client quote
// the exact failing request — 429/413/504 rejections included — in a
// bug report an operator can look up in /debug/traces.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// httpError writes a JSON error document with the given status,
// stamping the request's trace id when it has one.
func httpError(w http.ResponseWriter, r *http.Request, code int, err error) {
	body := errorBody{Error: err.Error()}
	if r != nil {
		body.TraceID = TraceIDFromContext(r.Context())
	}
	writeJSON(w, code, body)
}

// writeJSON writes v as a JSON document with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// statusWriter captures the response status for the metrics middleware.
// It forwards Flush (the batch endpoint streams) and exposes Unwrap for
// http.NewResponseController.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Flush implements http.Flusher for the streaming endpoints.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// headerWritten reports whether the response status is already on the
// wire (the instrument middleware's statusWriter tracks it).
func headerWritten(w http.ResponseWriter) bool {
	sw, ok := w.(*statusWriter)
	return ok && sw.code != 0
}
