package lclgrid

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// Server mounts an Engine behind HTTP — the network face of the solving
// service, `lclgrid serve` on the command line. The endpoints:
//
//	POST /v1/solve     one SolveRequest JSON document → one Result JSON document
//	POST /v1/batch     JSONL SolveRequests → JSONL results, streamed in
//	                   completion order over Engine.SolveStream
//	                   (?ordered=1 restores input order)
//	POST /v1/labels    one LabelRequest → the labels of one window of an
//	                   arbitrarily large torus (up to 10^6 per side),
//	                   O(window+halo) work on a warm cache; deterministic,
//	                   so responses carry a strong ETag
//	POST /v1/export    one ExportRequest → the whole grid streamed in
//	                   row-banded JSONL (or raw int32) chunks with
//	                   bounded memory
//	POST /v1/explain   one SolveRequest → its ranked Plan, zero SAT work
//	GET  /v1/problems  the registry catalogue with plan-hint summaries
//	                   (ETag + Cache-Control; If-None-Match → 304)
//	POST /v1/problems  register a wire-form ProblemDef → key, fingerprint
//	                   and ranked Plan; idempotent on the canonical
//	                   fingerprint (see WithProblemStore for persistence)
//	GET  /v1/problems/{key}  the canonical DSL form of one problem
//	                   (user-registered, or a table-backed catalogue entry)
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text exposition (see MetricsObserver)
//
// Production behaviours, configured with the Server options (the
// plumbing is shared with Gateway and CacheServer):
//
//   - Admission control: WithMaxInflight bounds the solve/batch requests
//     executing at once; excess requests are rejected immediately with
//     429 and a Retry-After header instead of queueing without bound.
//     The cheap endpoints (explain, problems, healthz, metrics) bypass
//     admission, so a saturated server stays observable.
//   - Timeouts: WithRequestTimeout derives a deadline for each solve
//     (and each batch stream) from the request's own context, so a hung
//     SAT search cannot pin a connection forever — cancellation reaches
//     the CDCL loop through the engine's context plumbing. The same
//     deadline bounds reading the request body, so a client that stalls
//     mid-document is answered 400 instead of holding its slot.
//   - Body limits: WithMaxBodyBytes caps request bodies; an oversized
//     solve document is rejected with 413 before it is decoded.
//   - Graceful shutdown: Serve drains in-flight requests when its
//     context is cancelled — a streaming batch completes every line —
//     and only force-closes (aborting solves through their derived
//     contexts) when WithDrainTimeout expires.
//
// A Server is an http.Handler; callers that want their own listener,
// TLS, or middleware can mount it directly and skip Serve.
type Server struct {
	*frontend
	engine   *Engine
	workers  int
	problems ProblemStore
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	frontendConfig
	workers  int
	cacheSvc *CacheServer
	problems ProblemStore
}

// Server defaults. They favour a service exposed to real traffic: a
// bounded number of concurrent solves, a deadline on every one of them,
// and bodies capped well above any legitimate SolveRequest.
const (
	// DefaultMaxInflight is the default admission bound on concurrently
	// executing solve/batch requests.
	DefaultMaxInflight = 64
	// DefaultRequestTimeout is the default per-request solve deadline.
	DefaultRequestTimeout = 60 * time.Second
	// DefaultMaxBodyBytes is the default request body cap (8 MiB —
	// thousands of JSONL batch lines, or a solve document with an
	// explicit identifier assignment for a large torus).
	DefaultMaxBodyBytes = 8 << 20
	// DefaultDrainTimeout is how long Serve waits for in-flight requests
	// on graceful shutdown before force-closing them.
	DefaultDrainTimeout = 30 * time.Second
)

// WithMaxInflight bounds how many solve/batch requests execute at once;
// excess requests receive 429 with Retry-After. n <= 0 removes the bound
// (not recommended for an exposed service).
func WithMaxInflight(n int) ServerOption {
	return func(c *serverConfig) { c.maxInflight = n }
}

// WithRequestTimeout sets the deadline applied to each solve request and
// to each batch stream (0 disables the deadline).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.timeout = d }
}

// WithMaxBodyBytes caps the request body size (n <= 0 removes the cap).
func WithMaxBodyBytes(n int64) ServerOption {
	return func(c *serverConfig) { c.maxBody = n }
}

// WithBatchWorkers bounds the worker pool each /v1/batch stream runs on
// (0 selects runtime.GOMAXPROCS(0), the SolveStream default).
func WithBatchWorkers(n int) ServerOption {
	return func(c *serverConfig) { c.workers = n }
}

// WithDrainTimeout bounds how long graceful shutdown waits for in-flight
// requests before force-closing them (0 selects DefaultDrainTimeout).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.drain = d }
}

// WithReadyCheck installs the readiness probe behind GET /readyz: the
// endpoint answers 503 (naming the returned error) until fn returns
// nil. Liveness (/healthz) and readiness are deliberately split — a
// replica warming its cache slice on boot is alive but must not receive
// traffic yet, and a supervisor that conflates the two either kills a
// healthy warming replica or routes to a cold one. Without this option
// /readyz always answers 200.
func WithReadyCheck(fn func() error) ServerOption {
	return func(c *serverConfig) { c.ready = fn }
}

// WithCacheService mounts a CacheServer under /v1/cache/ on this
// server, so a serve replica can double as the fleet's shared cache
// backend without a separate cachesvc process: point the other
// replicas' -remote-cache at "http://this-host/v1/cache". The cache
// routes bypass admission control — a replica at solve capacity must
// keep answering the (cheap) cache traffic that lets the rest of the
// fleet avoid duplicate synthesis.
func WithCacheService(cs *CacheServer) ServerOption {
	return func(c *serverConfig) { c.cacheSvc = cs }
}

// WithProblemStore installs the ProblemStore behind POST /v1/problems —
// NewDirProblemStore to persist user definitions across restarts
// (`serve -problems-dir`), or any other implementation. Without this
// option the server uses a process-local in-memory store: definitions
// still register and solve, but do not survive a restart.
func WithProblemStore(ps ProblemStore) ServerOption {
	return func(c *serverConfig) { c.problems = ps }
}

// WithServerTracing enables request tracing: every request gets a
// Trace (joining the caller's via a W3C traceparent header when one is
// present), spans are recorded through the engine's context plumbing,
// the trace id is echoed as X-Trace-Id, and completed traces land in
// buf — exposed at GET /debug/traces. Without this option requests are
// untraced and the endpoint is not mounted.
func WithServerTracing(buf *TraceBuffer) ServerOption {
	return func(c *serverConfig) { c.traces = buf }
}

// WithMetricsObserver shares a MetricsObserver between the server and
// the engine: install the same observer on the engine with WithObserver
// so the /metrics endpoint exposes engine events (syntheses, cache
// traffic, plans) alongside the HTTP-level series. Without this option
// the server creates a private observer and /metrics carries the HTTP
// series only.
func WithMetricsObserver(m *MetricsObserver) ServerOption {
	return func(c *serverConfig) { c.metrics = m }
}

// NewServer mounts the engine's endpoints on a new Server.
func NewServer(e *Engine, opts ...ServerOption) *Server {
	cfg := serverConfig{frontendConfig: frontendConfig{
		maxInflight: DefaultMaxInflight,
		timeout:     DefaultRequestTimeout,
		maxBody:     DefaultMaxBodyBytes,
	}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.problems == nil {
		cfg.problems = NewMemoryProblemStore()
	}
	s := &Server{
		frontend: newFrontend("serve", cfg.frontendConfig, nil),
		engine:   e,
		workers:  cfg.workers,
		problems: cfg.problems,
	}
	// The cache-entries gauge reads the live engine state at scrape time.
	s.metrics.SetCacheEntriesFunc(func() int { return e.CacheStats().Entries })
	s.route("POST /v1/solve", true, s.handleSolve)
	s.route("POST /v1/batch", true, s.handleBatch)
	s.route("POST /v1/labels", true, s.handleLabels)
	s.route("POST /v1/export", true, s.handleExport)
	s.route("POST /v1/explain", false, s.handleExplain)
	s.route("GET /v1/problems", false, s.handleProblems)
	s.route("POST /v1/problems", false, s.handleDefineProblem)
	s.route("GET /v1/problems/{key}", false, s.handleProblemGet)
	if cfg.cacheSvc != nil {
		s.mux.Handle("/v1/cache/", http.StripPrefix("/v1/cache", cfg.cacheSvc))
	}
	return s
}

// Engine returns the engine the server serves.
func (s *Server) Engine() *Engine { return s.engine }

// Metrics returns the server's metrics observer (the one passed with
// WithMetricsObserver, or the private one created without it).
func (s *Server) Metrics() *MetricsObserver { return s.metrics }

// Serve accepts connections on l until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests (streaming batches
// included) run to completion, and only when WithDrainTimeout expires
// are the stragglers force-closed — which cancels their request
// contexts, so an in-flight SAT search aborts at its next checkpoint
// instead of leaking. Serve returns nil after a clean drain, the
// listener's error if accepting fails, or a drain error naming the
// timeout when requests had to be cut off.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	return s.serve(ctx, l)
}

// --- handlers ---------------------------------------------------------------

// decodeDocument reads a single JSON document of any wire type from the
// request body, writing the HTTP error itself when the document is
// oversized, malformed, or trailed by more input.
func (s *Server) decodeDocument(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(s.body(w, r))
	if err := dec.Decode(dst); err != nil {
		bodyError(w, r, fmt.Errorf("lclgrid: bad request document: %w", err))
		return false
	}
	if dec.More() {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: request body must be a single JSON document (use /v1/batch for JSONL)"))
		return false
	}
	return true
}

// decodeRequest reads and validates a single SolveRequest document from
// the request body, writing the HTTP error itself when the document is
// oversized, malformed, trailed by more input, or fails wire validation.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (SolveRequest, bool) {
	var req SolveRequest
	if !s.decodeDocument(w, r, &req) {
		return req, false
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return req, false
	}
	return req, true
}

// errStatus maps a Solve error to its HTTP status: request-shaped
// failures are the client's (400), a server-side deadline is 504, a
// cancellation that was not the deadline means the client went away
// (499, the de-facto client-closed-request code — the response is dead,
// but the metrics series should not read as server timeouts), proven
// impossibility is 422, anything else 500.
func errStatus(ctx context.Context, err error) int {
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case IsContextError(err):
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return 499
	case errors.Is(err, ErrUnsolvable), errors.Is(err, ErrUnsatisfiable):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// handleSolve serves POST /v1/solve: one SolveRequest in, one Result
// out. Request-shaped failures (bad document, unknown key, invalid
// shape — the Planner's *RequestError, surfaced through Solve) are 400
// and never run a solver; proven-impossible outcomes (an unsolvable
// instance, UNSAT at every shape) are 422; the server-side deadline is
// 504 and a client disconnect 499 (see errStatus); anything else is
// 500.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := s.engine.Solve(ctx, req)
	if err != nil {
		httpError(w, r, errStatus(ctx, err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// handleExplain serves POST /v1/explain: the ranked Plan for one
// request, built with zero SAT work (`lclgrid explain` over HTTP).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	plan, err := s.engine.Plan(req)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(plan)
}

// batchLine is one JSONL record of the /v1/batch response: index and key
// echo the request; exactly one of result and error is set. A terminal
// {"error": ...} line with no index reports a mid-stream decode failure.
// TraceID carries the stream's trace id on every line when the server
// traces requests, so any line can be quoted in a bug report.
type batchLine struct {
	Index   *int    `json:"index,omitempty"`
	Key     string  `json:"key,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
	TraceID string  `json:"trace_id,omitempty"`
}

// handleBatch serves POST /v1/batch: JSONL SolveRequests in, JSONL
// results out, streamed over Engine.SolveStream in completion order
// (each line's index names its request) and flushed per line, so a slow
// solve never delays a fast one's result. ?ordered=1 buffers just enough
// to restore input order. Per-request failures (including wire
// validation) become {"error": ...} lines and never abort the stream; a
// malformed JSONL document ends the stream with a terminal error line —
// the status is already committed at that point, so in-band is the only
// place the error can go.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ordered := r.URL.Query().Get("ordered") == "1" || r.URL.Query().Get("ordered") == "true"
	// The read deadline covers the whole JSONL decode: a stalled
	// producer fails the in-stream Decode (emitting the terminal error
	// line below) instead of parking the handler past the batch
	// deadline with an admission slot held.
	//
	// Result lines are flushed while the body is still being decoded.
	// An HTTP/1 server closes the unread body at the first flush unless
	// the request is full-duplex, cutting the batch off mid-document.
	// The gateway's shard fan-out lands here too. The error is dropped:
	// HTTP/2 is always full-duplex, and a writer without support (a
	// test recorder) reads from a body nothing closes.
	_ = http.NewResponseController(w).EnableFullDuplex()
	body := s.body(w, r)
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// Index→key echo map; only in-flight indexes are resident, mirroring
	// the O(workers) memory of the stream itself.
	var (
		keyMu sync.Mutex
		keys  = make(map[int]string)
	)
	// decodeErr and sawEOF are written by the stream's producer
	// goroutine and read only after the stream is fully drained (the
	// stream's teardown is the happens-before edge). sawEOF
	// distinguishes "every request was read" from "the deadline stopped
	// the decode early" — the latter must leave a marker on the wire.
	var decodeErr error
	var sawEOF bool
	dec := json.NewDecoder(bufio.NewReader(body))
	reqSeq := func(yield func(SolveRequest) bool) {
		for index := 0; ; index++ {
			if ctx.Err() != nil {
				return
			}
			var req SolveRequest
			if err := dec.Decode(&req); err != nil {
				if err != io.EOF {
					decodeErr = err
				} else {
					sawEOF = true
				}
				return
			}
			keyMu.Lock()
			keys[index] = req.Key
			keyMu.Unlock()
			if !yield(req) {
				return
			}
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	tid := TraceIDFromContext(ctx)
	emit := func(it BatchItem) error {
		keyMu.Lock()
		key := keys[it.Index]
		delete(keys, it.Index)
		keyMu.Unlock()
		index := it.Index
		line := batchLine{Index: &index, Key: key, TraceID: tid}
		if it.Err != nil {
			line.Error = it.Err.Error()
		} else {
			line.Result = it.Result
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		return rc.Flush()
	}

	stream := s.engine.SolveStream(ctx, reqSeq, WithWorkers(s.workers))
	if ordered {
		stream = Reordered(stream)
	}
	for it := range stream {
		if err := emit(it); err != nil {
			return // client gone; the derived ctx tears the pool down
		}
	}
	// The status is already committed, so stream-level failures go on
	// the wire as a terminal index-less error line: a malformed JSONL
	// document, or a deadline that stopped the decode before EOF (whose
	// unread requests would otherwise vanish silently — each dispatched
	// request already carried its own per-line error).
	switch {
	case decodeErr != nil:
		msg := fmt.Sprintf("lclgrid: bad batch document: %v", decodeErr)
		if os.IsTimeout(decodeErr) {
			// The read deadline fired mid-decode: a stalled producer, not
			// a malformed document.
			msg = fmt.Sprintf("lclgrid: batch truncated before the input was fully read: %v", decodeErr)
		}
		_ = enc.Encode(batchLine{Error: msg, TraceID: tid})
		_ = rc.Flush()
	case !sawEOF:
		err := ctx.Err()
		if err == nil {
			err = context.Canceled // consumer stopped: the client went away
		}
		_ = enc.Encode(batchLine{Error: fmt.Sprintf("lclgrid: batch truncated before the input was fully read: %v", err), TraceID: tid})
		_ = rc.Flush()
	}
}

// --- windowed labeling ------------------------------------------------------

// labelETag computes the strong ETag of a label response without
// evaluating it: every field of a LabelResponse is a deterministic
// function of the resolved request and the catalogue (synthesis is
// deterministic and label requests never race attempts), so the
// canonical form of the resolved request identifies the response. ok is
// false when the request does not resolve (the handler then reports the
// planning error through the normal path).
func (s *Server) labelETag(req LabelRequest) (string, bool) {
	lp, err := s.engine.planLabel(req)
	if err != nil {
		return "", false
	}
	identity := req.Key
	if identity == "" {
		// Inline problem_def requests have no key; the compiled problem's
		// fingerprint is the identity (two definitions normalizing to the
		// same tables serve byte-identical windows).
		identity = "def:" + lp.spec.Problem().Fingerprint()
	}
	nx, ny := lp.t.NX(), lp.t.NY()
	h := sha256.New()
	fmt.Fprintf(h, "lclgrid-labels-v1\x00%s\x00%dx%d\x00seed=%d\x00rect=%d,%d,%d,%d\x00mode=%s",
		identity, nx, ny, req.Seed,
		((req.X%nx)+nx)%nx, ((req.Y%ny)+ny)%ny, req.W, req.H, lp.mode)
	for _, a := range lp.attempts {
		fmt.Fprintf(h, "\x00k=%d,%dx%d", a.K, a.H, a.W)
	}
	return `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`, true
}

// etagMatches reports whether the request's If-None-Match header matches
// the given strong ETag.
func etagMatches(r *http.Request, etag string) bool {
	header := r.Header.Get("If-None-Match")
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// labelCacheControl is the Cache-Control of deterministic label
// responses: cacheable by anyone, revalidated cheaply via the ETag.
const labelCacheControl = "public, max-age=3600"

// handleLabels serves POST /v1/labels: one LabelRequest in, the labels
// of one window of an arbitrarily large torus out. The response is a
// deterministic function of the request, so it carries a strong ETag
// and Cache-Control; If-None-Match revalidation answers 304 before any
// evaluation (and before any synthesis).
func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	var req LabelRequest
	if !s.decodeDocument(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if etag, ok := s.labelETag(req); ok {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", labelCacheControl)
		if etagMatches(r, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := s.engine.LabelWindow(ctx, req)
	if err != nil {
		httpError(w, r, errStatus(ctx, err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// exportLine is one JSONL record of the /v1/export response: a row band,
// a terminal {"done": ...} summary, or a terminal {"error": ...} line
// when the stream was cut mid-flight (the status is committed by then,
// so in-band is the only place the error can go).
type exportLine struct {
	Band  *LabelBand `json:"band,omitempty"`
	Done  bool       `json:"done,omitempty"`
	Bands int        `json:"bands,omitempty"`
	Nodes int        `json:"nodes,omitempty"`
	Error string     `json:"error,omitempty"`
}

// handleExport serves POST /v1/export: the whole grid streamed in row
// bands with bounded memory — each band is evaluated, written and
// flushed before the next is computed, and the evaluator's memo state is
// reset between bands. "jsonl" (default) frames each band as a JSON
// line; "int32" writes raw little-endian labels row-major. Graceful
// shutdown drains the stream: an in-flight export keeps emitting bands
// until it finishes or its deadline cuts it (leaving a terminal error
// line in JSONL mode, a short stream in int32 mode).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	var req ExportRequest
	if !s.decodeDocument(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	rc := http.NewResponseController(w)

	if req.Format == ExportFormatInt32 {
		w.Header().Set("Content-Type", "application/octet-stream")
		buf := bufio.NewWriter(w)
		err := s.engine.ExportGrid(ctx, req, func(b LabelBand) error {
			for _, lab := range b.Labels {
				var le [4]byte
				binary.LittleEndian.PutUint32(le[:], uint32(int32(lab)))
				if _, err := buf.Write(le[:]); err != nil {
					return err
				}
			}
			if err := buf.Flush(); err != nil {
				return err
			}
			return rc.Flush()
		})
		if err != nil && !headerWritten(w) {
			// Planning/synthesis failed before the first band: the status
			// is still ours to set.
			httpError(w, r, errStatus(ctx, err), err)
		}
		return
	}

	enc := json.NewEncoder(w)
	bands, nodes := 0, 0
	wroteBand := false
	err := s.engine.ExportGrid(ctx, req, func(b LabelBand) error {
		if !wroteBand {
			w.Header().Set("Content-Type", "application/x-ndjson")
			wroteBand = true
		}
		band := b
		if err := enc.Encode(exportLine{Band: &band}); err != nil {
			return err
		}
		bands++
		nodes += len(b.Labels)
		return rc.Flush()
	})
	switch {
	case err != nil && !wroteBand:
		httpError(w, r, errStatus(ctx, err), err)
	case err != nil:
		_ = enc.Encode(exportLine{Error: fmt.Sprintf("lclgrid: export truncated: %v", err)})
		_ = rc.Flush()
	default:
		_ = enc.Encode(exportLine{Done: true, Bands: bands, Nodes: nodes})
		_ = rc.Flush()
	}
}

// problemEntry is one /v1/problems catalogue record.
type problemEntry struct {
	Key         string `json:"key"`
	Name        string `json:"name"`
	Dims        int    `json:"dims"`
	Labels      int    `json:"labels,omitempty"`
	Class       Class  `json:"class"`
	MinSide     int    `json:"min_side"`
	SideModulus int    `json:"side_modulus,omitempty"`
	Strategy    string `json:"strategy"`
	Source      string `json:"source"`
}

// problemsResponse is the /v1/problems document.
type problemsResponse struct {
	Problems []problemEntry `json:"problems"`
	Families []string       `json:"families"`
}

// handleProblems serves GET /v1/problems: the registry catalogue with
// each spec's plan-hint summary, plus the parameterised families the
// registry resolves beyond the registered keys. The document is rendered
// first so its hash can serve as a strong ETag — the catalogue only
// changes when the registry does, so HTTP caches can revalidate repeat
// reads for free.
func (s *Server) handleProblems(w http.ResponseWriter, r *http.Request) {
	specs := s.engine.Registry().Specs()
	resp := problemsResponse{
		Problems: make([]problemEntry, 0, len(specs)),
		Families: []string{"<k>col", "<k>edgecol", "orient<digits 0-4>"},
	}
	for _, spec := range specs {
		resp.Problems = append(resp.Problems, problemEntry{
			Key:         spec.Key,
			Name:        spec.Name,
			Dims:        spec.Dims,
			Labels:      spec.NumLabels,
			Class:       spec.Class,
			MinSide:     spec.MinSide,
			SideModulus: spec.SideModulus,
			Strategy:    spec.StrategySummary(s.engine),
			Source:      spec.SourceLabel(),
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=300")
	if etagMatches(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// defineResponse is the POST /v1/problems document: the registered key
// (deterministic — derived from the canonical fingerprint, so every
// replica agrees), the fingerprint itself, whether this call created the
// registration, and the ranked Plan the engine would execute for it
// (built with zero SAT work, like /v1/explain).
type defineResponse struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	Created     bool   `json:"created"`
	Plan        *Plan  `json:"plan"`
}

// handleDefineProblem serves POST /v1/problems: one wire-form ProblemDef
// in, its registration out. Registration is idempotent on the canonical
// fingerprint — re-posting a definition (or a differently-stated
// equivalent that normalizes to the same tables) returns the same key
// with created=false. New registrations answer 201, repeats 200.
func (s *Server) handleDefineProblem(w http.ResponseWriter, r *http.Request) {
	var def ProblemDef
	if !s.decodeDocument(w, r, &def) {
		return
	}
	rec, created, err := s.engine.DefineProblem(&def)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := s.problems.Put(rec); err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	plan, err := s.engine.Plan(SolveRequest{Key: rec.Key})
	if err != nil {
		httpError(w, r, errStatus(r.Context(), err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	_ = json.NewEncoder(w).Encode(defineResponse{
		Key: rec.Key, Fingerprint: rec.Fingerprint, Created: created, Plan: plan,
	})
}

// problemDoc is the GET /v1/problems/{key} document: the canonical DSL
// form of one problem plus its identity.
type problemDoc struct {
	Key         string      `json:"key"`
	Fingerprint string      `json:"fingerprint"`
	Source      string      `json:"source"`
	Def         *ProblemDef `json:"def"`
}

// handleProblemGet serves GET /v1/problems/{key}: the canonical DSL form
// of a user-registered problem, or the extracted table form of any
// table-backed catalogue entry (so every servable problem can be read
// back in definition form). Like the catalogue listing, the document
// only changes when the registry does, so it carries a strong ETag.
func (s *Server) handleProblemGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	doc := problemDoc{Key: key, Source: SourceUser}
	if rec, ok := s.problems.Get(key); ok {
		doc.Fingerprint, doc.Def = rec.Fingerprint, rec.Def
	} else {
		spec, err := s.engine.Registry().Lookup(key)
		if err != nil || spec.Problem == nil {
			httpError(w, r, http.StatusNotFound, fmt.Errorf("lclgrid: no problem definition for %q (unknown key, or a direct-algorithm entry with no table form)", key))
			return
		}
		p := spec.Problem()
		def, cerr := NewProblemDef(p).Canonical()
		if cerr != nil {
			httpError(w, r, http.StatusNotFound, fmt.Errorf("lclgrid: problem %q is not representable in the table DSL: %w", key, cerr))
			return
		}
		doc.Fingerprint, doc.Source, doc.Def = p.Fingerprint(), spec.SourceLabel(), def
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=300")
	if etagMatches(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}
