package lclgrid

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MetricsObserver is an Observer that aggregates engine events — request
// start/end, plan and strategy execution, SAT syntheses, cache traffic
// and Θ(n) fallbacks — into counters and latency histograms, and renders
// them in the Prometheus text exposition format (version 0.0.4) with no
// external dependencies. It is the metrics backend of the HTTP serving
// subsystem: install one on the engine with
//
//	m := lclgrid.NewMetricsObserver()
//	eng := lclgrid.NewEngine(lclgrid.WithObserver(m))
//	srv := lclgrid.NewServer(eng, lclgrid.WithMetricsObserver(m))
//
// and GET /metrics scrapes it. The HTTP-level series (request counts by
// path and status, in-flight gauge, admission rejections, handler
// latency) are recorded by the Server; the engine-level series flow in
// through Observe — remote-cache traffic included, when the engine's
// cache is a RemoteCache — so one MetricsObserver shared between the
// two layers tells the whole story of a served request.
//
// All methods are safe for concurrent use; observation is a handful of
// atomic adds (labelled series take a mutex), cheap enough for the
// engine's synchronous observer path. WritePrometheus takes a
// best-effort snapshot: like CacheStats, counters scraped while requests
// are in flight are individually exact but not a single consistent cut.
type MetricsObserver struct {
	// Engine-level series, fed by Observe: the plain event counters are
	// a CountingObserver's, the gauges, histograms and labelled series
	// are kept here.
	counts           CountingObserver
	requestsInflight atomic.Int64
	requestSeconds   *histogram
	strategyRuns     labeledCounter
	strategyErrors   labeledCounter
	synthesisSeconds *histogram

	// Windowed-labeling series, fed by the window events (LabelWindow
	// and ExportGrid; exports count once with cumulative stats).
	labelWindowNodes atomic.Uint64
	labelAnchorNodes atomic.Uint64
	labelHaloNodes   atomic.Uint64
	labelSeconds     *histogram

	// HTTP-level series, fed by the Server.
	httpInflight  atomic.Int64
	httpThrottled atomic.Uint64
	httpRequests  labeledCounter
	httpSeconds   labeledHistograms

	// Remote-cache series, fed by the remote events of an engine whose
	// cache is a RemoteCache.
	remoteOps     labeledCounter
	remoteSeconds labeledHistograms

	// cacheEntries, when set, reports the live entry count of the
	// engine's synthesis cache (SetCacheEntriesFunc).
	cacheEntries atomic.Pointer[func() int]

	// Gateway series, fed by a Gateway.
	gatewayRequests labeledCounter
	gatewayRetries  atomic.Uint64
	gatewayErrors   atomic.Uint64

	// traceStats, when set, reports the trace ring's lifetime
	// added/dropped counts (SetTraceStatsFunc).
	traceStats atomic.Pointer[func() (uint64, uint64)]

	// buildInfo, when set, renders the lclgrid_build_info gauge
	// (SetBuildInfo): [version, revision].
	buildInfo atomic.Pointer[[2]string]
}

var _ Observer = (*MetricsObserver)(nil)

// NewMetricsObserver returns a ready-to-use metrics aggregator.
func NewMetricsObserver() *MetricsObserver {
	return &MetricsObserver{
		requestSeconds:   newHistogram(),
		synthesisSeconds: newHistogram(),
		labelSeconds:     newHistogram(),
	}
}

// Observe implements Observer: the embedded counters tally the event,
// then one switch feeds the gauges, histograms and labelled series.
func (m *MetricsObserver) Observe(ev Event) {
	m.counts.Observe(ev)
	switch ev.Kind {
	case EventRequestStart:
		m.requestsInflight.Add(1)
	case EventRequestEnd:
		m.requestsInflight.Add(-1)
		// Result.Elapsed is the engine-stamped wall clock of the request;
		// error-only completions carry no duration and are only counted.
		if ev.Result != nil {
			m.requestSeconds.observe(ev.Result.Elapsed)
		}
	case EventStrategyStart:
		m.strategyRuns.add(kindLabel(ev.Strategy))
	case EventStrategyEnd:
		if ev.Err != nil {
			m.strategyErrors.add(kindLabel(ev.Strategy))
		}
	case EventSynthesisEnd:
		m.synthesisSeconds.observe(ev.Elapsed)
	case EventWindowEnd:
		m.labelWindowNodes.Add(uint64(ev.Stats.WindowNodes))
		m.labelAnchorNodes.Add(uint64(ev.Stats.AnchorNodes))
		m.labelHaloNodes.Add(uint64(ev.Stats.HaloNodes))
		m.labelSeconds.observe(ev.Elapsed)
	case EventRemoteOp:
		m.remoteOps.add(`op="` + ev.Op + `",outcome="` + ev.Outcome + `"`)
		m.remoteSeconds.observe(`op="`+ev.Op+`"`, ev.Elapsed)
	}
}

func kindLabel(s *PlannedStrategy) string {
	return `kind="` + string(s.Kind) + `"`
}

// SetCacheEntriesFunc installs the live source of the
// lclgrid_cache_entries gauge — typically
//
//	m.SetCacheEntriesFunc(func() int { return eng.CacheStats().Entries })
//
// (`lclgrid serve` wires this automatically). Without it the gauge is
// omitted from the rendering; a constant 0 would read as an empty
// cache, not an unplumbed one.
func (m *MetricsObserver) SetCacheEntriesFunc(fn func() int) {
	if fn == nil {
		m.cacheEntries.Store(nil)
		return
	}
	m.cacheEntries.Store(&fn)
}

// SetTraceStatsFunc installs the live source of the
// lclgrid_traces_total / lclgrid_traces_dropped_total counters —
// typically a TraceBuffer's Stats method:
//
//	m.SetTraceStatsFunc(buf.Stats)
//
// Without it the series are omitted (tracing is off, not idle).
func (m *MetricsObserver) SetTraceStatsFunc(fn func() (added, dropped uint64)) {
	if fn == nil {
		m.traceStats.Store(nil)
		return
	}
	m.traceStats.Store(&fn)
}

// SetBuildInfo installs the lclgrid_build_info{revision,version} gauge —
// the binary identity every scrape carries, so a dashboard can correlate
// a metrics regression with the deploy that shipped it. Empty fields
// render as "unknown"; without the call the gauge is omitted.
func (m *MetricsObserver) SetBuildInfo(version, revision string) {
	if version == "" {
		version = "unknown"
	}
	if revision == "" {
		revision = "unknown"
	}
	m.buildInfo.Store(&[2]string{version, revision})
}

// --- Gateway recording hooks --------------------------------------------------

func (m *MetricsObserver) gatewayRequest(route, shard string, code int) {
	m.gatewayRequests.add(`route="` + route + `",shard="` + shard + `",code="` + strconv.Itoa(code) + `"`)
}
func (m *MetricsObserver) gatewayRetry() { m.gatewayRetries.Add(1) }
func (m *MetricsObserver) gatewayError() { m.gatewayErrors.Add(1) }

// --- Server-side recording hooks --------------------------------------------

func (m *MetricsObserver) httpStart()    { m.httpInflight.Add(1) }
func (m *MetricsObserver) httpRejected() { m.httpThrottled.Add(1) }

func (m *MetricsObserver) httpEnd(path string, code int, elapsed time.Duration) {
	m.httpInflight.Add(-1)
	m.httpRequests.add(`path="` + path + `",code="` + strconv.Itoa(code) + `"`)
	m.httpSeconds.observe(`path="`+path+`"`, elapsed)
}

// --- Rendering --------------------------------------------------------------

// WritePrometheus renders every series in the Prometheus text exposition
// format (content type `text/plain; version=0.0.4`). The output is
// deterministic: labelled series are sorted by label value, so repeated
// scrapes of a quiescent observer are byte-identical.
func (m *MetricsObserver) WritePrometheus(w io.Writer) error {
	mw := &metricsWriter{w: w}
	c := m.counts.Counts()

	mw.counter("lclgrid_requests_total", "Solve requests accepted by the engine (batch and stream items included).", c.Requests)
	mw.counter("lclgrid_request_errors_total", "Solve requests that completed with an error.", c.RequestErrors)
	mw.gauge("lclgrid_requests_inflight", "Solve requests currently executing inside the engine.", m.requestsInflight.Load())
	mw.histogram("lclgrid_request_duration_seconds", "Engine-side wall-clock duration of completed solve requests.", "", m.requestSeconds)
	mw.counter("lclgrid_plans_total", "Plans built by the Planner (one per accepted request).", c.Plans)
	mw.labeled("lclgrid_strategy_runs_total", "Plan stages executed, by strategy kind.", "counter", &m.strategyRuns)
	mw.labeled("lclgrid_strategy_errors_total", "Plan stages that failed, by strategy kind.", "counter", &m.strategyErrors)
	mw.counter("lclgrid_syntheses_total", "SAT syntheses started (cache misses elected to run).", c.Syntheses)
	mw.counter("lclgrid_synthesis_errors_total", "Syntheses that returned an error (UNSAT proofs and aborts included).", c.SynthesisErrors)
	mw.counter("lclgrid_synthesis_aborts_total", "Syntheses aborted by context cancellation.", c.SynthesisAborts)
	mw.histogram("lclgrid_synthesis_duration_seconds", "Wall-clock duration of SAT syntheses, aborted ones included.", "", m.synthesisSeconds)
	mw.counter("lclgrid_cache_hits_total", "Synthesis lookups served from the cache (coalesced waiters included).", c.CacheHits)
	mw.counter("lclgrid_cache_misses_total", "Synthesis lookups that found nothing and started a synthesis.", c.CacheMisses)
	mw.counter("lclgrid_cache_evictions_total", "Cache entries removed by Evict or a capacity bound.", c.CacheEvicts)
	if fn := m.cacheEntries.Load(); fn != nil {
		mw.gauge("lclgrid_cache_entries", "Entries resident in the synthesis cache.", int64((*fn)()))
	}
	mw.counter("lclgrid_fallbacks_total", "Requests redirected to the Θ(n) baseline by a too-small torus.", c.Fallbacks)

	mw.counter("lclgrid_label_requests_total", "Windowed label requests accepted (streaming exports count once).", c.Windows)
	mw.counter("lclgrid_label_request_errors_total", "Windowed label requests that completed with an error.", c.WindowErrors)
	mw.counter("lclgrid_label_window_nodes_total", "Labels produced by windowed evaluation.", m.labelWindowNodes.Load())
	mw.counter("lclgrid_label_anchor_nodes_total", "Anchor-membership evaluations performed by windowed evaluation (window + halo work).", m.labelAnchorNodes.Load())
	mw.counter("lclgrid_label_halo_nodes_total", "Anchor-membership evaluations outside the requested windows (the halo overhead).", m.labelHaloNodes.Load())
	mw.histogram("lclgrid_label_duration_seconds", "Wall-clock duration of windowed label requests.", "", m.labelSeconds)

	mw.labeled("lclgrid_remote_cache_ops_total", "Remote synthesis-cache interactions, by protocol op and outcome.", "counter", &m.remoteOps)
	mw.labeledHistograms("lclgrid_remote_cache_op_duration_seconds", "Remote synthesis-cache interaction latency, by protocol op.", &m.remoteSeconds)
	mw.counter("lclgrid_remote_cache_degraded_total", "Cluster-coordination give-ups that fell back to uncoordinated local synthesis.", c.RemoteDegraded)

	mw.counter("lclgrid_http_throttled_total", "HTTP requests rejected with 429 by the in-flight admission bound.", m.httpThrottled.Load())
	mw.gauge("lclgrid_http_requests_inflight", "HTTP requests currently being handled.", m.httpInflight.Load())
	mw.labeled("lclgrid_http_requests_total", "HTTP requests served, by path and status code.", "counter", &m.httpRequests)
	mw.labeledHistograms("lclgrid_http_request_duration_seconds", "HTTP handler wall-clock duration, by path.", &m.httpSeconds)

	mw.labeled("lclgrid_gateway_requests_total", "Requests the gateway proxied, by route, shard and upstream status.", "counter", &m.gatewayRequests)
	mw.counter("lclgrid_gateway_retries_total", "Idempotent requests retried on the next ring replica after a shard failure.", m.gatewayRetries.Load())
	mw.counter("lclgrid_gateway_errors_total", "Gateway requests that exhausted every replica for their key.", m.gatewayErrors.Load())

	if fn := m.traceStats.Load(); fn != nil {
		added, dropped := (*fn)()
		mw.counter("lclgrid_traces_total", "Completed traces deposited in the /debug/traces ring.", added)
		mw.counter("lclgrid_traces_dropped_total", "Traces evicted from the ring by newer ones.", dropped)
	}
	if bi := m.buildInfo.Load(); bi != nil {
		mw.header("lclgrid_build_info", "Build identity of the running binary; always 1.", "gauge")
		mw.printf("lclgrid_build_info{revision=%q,version=%q} 1\n", bi[1], bi[0])
	}

	return mw.err
}

// metricsWriter accumulates the first write error so the render methods
// can be chained without per-line error plumbing.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (mw *metricsWriter) printf(format string, args ...any) {
	if mw.err != nil {
		return
	}
	_, mw.err = fmt.Fprintf(mw.w, format, args...)
}

func (mw *metricsWriter) header(name, help, typ string) {
	mw.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (mw *metricsWriter) counter(name, help string, v uint64) {
	mw.header(name, help, "counter")
	mw.printf("%s %d\n", name, v)
}

func (mw *metricsWriter) gauge(name, help string, v int64) {
	mw.header(name, help, "gauge")
	mw.printf("%s %d\n", name, v)
}

func (mw *metricsWriter) labeled(name, help, typ string, c *labeledCounter) {
	mw.header(name, help, typ)
	for _, s := range c.snapshot() {
		mw.printf("%s{%s} %d\n", name, s.labels, s.value)
	}
}

func (mw *metricsWriter) histogram(name, help, labels string, h *histogram) {
	mw.header(name, help, "histogram")
	mw.histogramSeries(name, labels, h)
}

func (mw *metricsWriter) histogramSeries(name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, ub := range durationBuckets {
		cum += h.buckets[i].Load()
		mw.printf("%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatFloat(ub), cum)
	}
	cum += h.overflow.Load()
	mw.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		mw.printf("%s_sum %s\n", name, formatFloat(h.sumSeconds()))
		mw.printf("%s_count %d\n", name, cum)
	} else {
		mw.printf("%s_sum{%s} %s\n", name, labels, formatFloat(h.sumSeconds()))
		mw.printf("%s_count{%s} %d\n", name, labels, cum)
	}
}

func (mw *metricsWriter) labeledHistograms(name, help string, lh *labeledHistograms) {
	mw.header(name, help, "histogram")
	for _, s := range lh.snapshot() {
		mw.histogramSeries(name, s.labels, s.h)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// --- Histograms -------------------------------------------------------------

// durationBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache hits to minute-scale cold syntheses.
var durationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram over durationBuckets.
// Buckets hold per-bucket (non-cumulative) counts; rendering accumulates
// them into the cumulative form Prometheus expects. The sum is kept in
// integer nanoseconds so observation needs no atomic float tricks.
type histogram struct {
	buckets  []atomic.Uint64
	overflow atomic.Uint64
	sumNanos atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Uint64, len(durationBuckets))}
}

func (h *histogram) observe(d time.Duration) {
	h.sumNanos.Add(int64(d))
	secs := d.Seconds()
	for i, ub := range durationBuckets {
		if secs <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.overflow.Add(1)
}

func (h *histogram) sumSeconds() float64 {
	return float64(h.sumNanos.Load()) / float64(time.Second)
}

// --- Labelled series --------------------------------------------------------

// labeledCounter is a counter family keyed by a rendered label string
// (`kind="synthesis"`, `path="/v1/solve",code="200"`). The label sets the
// server and engine produce are small and bounded, so a mutex-guarded map
// is plenty. The zero value is ready to use.
type labeledCounter struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (c *labeledCounter) add(labels string) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	c.m[labels]++
	c.mu.Unlock()
}

type labeledSample struct {
	labels string
	value  uint64
}

func (c *labeledCounter) snapshot() []labeledSample {
	c.mu.Lock()
	out := make([]labeledSample, 0, len(c.m))
	for k, v := range c.m {
		out = append(out, labeledSample{labels: k, value: v})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// labeledHistograms is a histogram family keyed by a rendered label
// string. The zero value is ready to use.
type labeledHistograms struct {
	mu sync.Mutex
	m  map[string]*histogram
}

func (lh *labeledHistograms) observe(labels string, d time.Duration) {
	lh.mu.Lock()
	if lh.m == nil {
		lh.m = make(map[string]*histogram)
	}
	h, ok := lh.m[labels]
	if !ok {
		h = newHistogram()
		lh.m[labels] = h
	}
	lh.mu.Unlock()
	h.observe(d)
}

type labeledHistogram struct {
	labels string
	h      *histogram
}

func (lh *labeledHistograms) snapshot() []labeledHistogram {
	lh.mu.Lock()
	out := make([]labeledHistogram, 0, len(lh.m))
	for k, h := range lh.m {
		out = append(out, labeledHistogram{labels: k, h: h})
	}
	lh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
