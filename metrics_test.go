package lclgrid

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metricValue extracts an unlabelled sample value from Prometheus text
// output, failing the test when the series is missing.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s has unparsable value %q: %v", name, rest, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// metricText renders the observer for assertions.
func metricText(t *testing.T, m *MetricsObserver) string {
	t.Helper()
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

// TestMetricsObserverAggregatesEngineEvents drives a real engine with a
// MetricsObserver installed and checks the rendered counters tell the
// same story as the built-in CountingObserver.
func TestMetricsObserverAggregatesEngineEvents(t *testing.T) {
	m := NewMetricsObserver()
	c := &CountingObserver{}
	eng := NewEngine(WithObserver(m), WithObserver(c))
	ctx := context.Background()

	reqs := []SolveRequest{
		{Key: "mis", N: 12},
		{Key: "mis", N: 12},    // second solve reuses the cached table
		{Key: "nope", N: 12},   // request error (unknown key)
		{Key: "orient2", N: 8}, // constant fill, no synthesis
	}
	for _, req := range reqs {
		_, _ = eng.Solve(ctx, req)
	}

	body := metricText(t, m)
	counts := c.Counts()
	for name, want := range map[string]float64{
		"lclgrid_requests_total":       float64(counts.Requests),
		"lclgrid_request_errors_total": float64(counts.RequestErrors),
		"lclgrid_syntheses_total":      float64(counts.Syntheses),
		"lclgrid_cache_hits_total":     float64(counts.CacheHits),
		"lclgrid_cache_misses_total":   float64(counts.CacheMisses),
		"lclgrid_plans_total":          float64(counts.Plans),
		"lclgrid_requests_inflight":    0,
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := metricValue(t, body, "lclgrid_requests_total"); got != 4 {
		t.Errorf("lclgrid_requests_total = %v, want 4", got)
	}
	// The successful solves ran a strategy; the labelled series must
	// name the kinds.
	if !strings.Contains(body, `lclgrid_strategy_runs_total{kind="synthesis"}`) {
		t.Errorf("no synthesis strategy series in:\n%s", body)
	}
	if !strings.Contains(body, `lclgrid_strategy_runs_total{kind="constant-fill"} 1`) {
		t.Errorf("no constant-fill strategy series in:\n%s", body)
	}
	// Request durations flow from Result.Elapsed into the histogram.
	if got := metricValue(t, body, "lclgrid_request_duration_seconds_count"); got != 3 {
		t.Errorf("request duration count = %v, want 3 (the completed solves)", got)
	}
	if got := metricValue(t, body, "lclgrid_synthesis_duration_seconds_count"); got != float64(counts.Syntheses) {
		t.Errorf("synthesis duration count = %v, want %v", got, counts.Syntheses)
	}

	// The same requests again through a 4-worker batch, plus one window:
	// events delivered from concurrent workers keep both observers in
	// step (run under -race in CI).
	eng.SolveBatch(ctx, reqs, WithWorkers(4))
	if _, err := eng.LabelWindow(ctx, LabelRequest{Key: "mis", N: 12, W: 3, H: 2}); err != nil {
		t.Fatal(err)
	}
	body = metricText(t, m)
	counts = c.Counts()
	if counts.Requests != 2*uint64(len(reqs)) || counts.Windows != 1 {
		t.Errorf("counting observer saw %d requests / %d windows, want %d / 1", counts.Requests, counts.Windows, 2*len(reqs))
	}
	for name, want := range map[string]uint64{
		"lclgrid_requests_total":       counts.Requests,
		"lclgrid_plans_total":          counts.Plans,
		"lclgrid_syntheses_total":      counts.Syntheses,
		"lclgrid_cache_hits_total":     counts.CacheHits,
		"lclgrid_cache_misses_total":   counts.CacheMisses,
		"lclgrid_label_requests_total": counts.Windows,
	} {
		if got := metricValue(t, body, name); got != float64(want) {
			t.Errorf("after batch: %s = %v, counting observer %v", name, got, want)
		}
	}
}

// TestHistogramBuckets pins the cumulative bucket rendering: counts
// accumulate across bucket boundaries and the +Inf bucket equals the
// total count.
func TestHistogramBuckets(t *testing.T) {
	m := NewMetricsObserver()
	for _, d := range []time.Duration{
		100 * time.Microsecond, // le 0.0005
		2 * time.Millisecond,   // le 0.0025
		40 * time.Millisecond,  // le 0.05
		2 * time.Minute,        // overflow
	} {
		m.synthesisSeconds.observe(d)
	}
	body := metricText(t, m)
	for _, want := range []string{
		`lclgrid_synthesis_duration_seconds_bucket{le="0.0005"} 1`,
		`lclgrid_synthesis_duration_seconds_bucket{le="0.001"} 1`,
		`lclgrid_synthesis_duration_seconds_bucket{le="0.0025"} 2`,
		`lclgrid_synthesis_duration_seconds_bucket{le="0.05"} 3`,
		`lclgrid_synthesis_duration_seconds_bucket{le="60"} 3`,
		`lclgrid_synthesis_duration_seconds_bucket{le="+Inf"} 4`,
		`lclgrid_synthesis_duration_seconds_count 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	wantSum := (100*time.Microsecond + 2*time.Millisecond + 40*time.Millisecond + 2*time.Minute).Seconds()
	if got := metricValue(t, body, "lclgrid_synthesis_duration_seconds_sum"); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// TestSynthesisAbortAccounting checks the abort counter follows the
// shared context-error predicate, not just any error.
func TestSynthesisAbortAccounting(t *testing.T) {
	m := NewMetricsObserver()
	key := SynthKey{K: 1, H: 3, W: 3}
	for _, err := range []error{nil, errors.New("unsat"), context.Canceled, context.DeadlineExceeded} {
		m.Observe(Event{Kind: EventSynthesisEnd, Key: key, Elapsed: time.Millisecond, Err: err})
	}
	body := metricText(t, m)
	if got := metricValue(t, body, "lclgrid_synthesis_errors_total"); got != 3 {
		t.Errorf("synthesis errors = %v, want 3", got)
	}
	if got := metricValue(t, body, "lclgrid_synthesis_aborts_total"); got != 2 {
		t.Errorf("synthesis aborts = %v, want 2", got)
	}
}

// TestWritePrometheusDeterministic checks repeated renders of a
// quiescent observer are byte-identical (labelled series are sorted),
// and that every series family carries HELP and TYPE headers.
func TestWritePrometheusDeterministic(t *testing.T) {
	m := NewMetricsObserver()
	m.httpEnd("/v1/solve", 200, time.Millisecond)
	m.httpStart() // balance the httpEnd decrement
	m.httpEnd("/v1/batch", 200, time.Millisecond)
	m.httpStart()
	m.httpEnd("/healthz", 404, time.Microsecond)
	m.httpStart()

	a, b := metricText(t, m), metricText(t, m)
	if a != b {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a, b)
	}
	for _, name := range []string{
		"lclgrid_requests_total", "lclgrid_http_requests_total",
		"lclgrid_http_request_duration_seconds", "lclgrid_synthesis_duration_seconds",
	} {
		if !strings.Contains(a, "# HELP "+name+" ") || !strings.Contains(a, "# TYPE "+name+" ") {
			t.Errorf("family %s lacks HELP/TYPE headers", name)
		}
	}
	// Label sets sort deterministically: /healthz before /v1/batch
	// before /v1/solve.
	i := strings.Index(a, `path="/healthz",code="404"`)
	j := strings.Index(a, `path="/v1/batch",code="200"`)
	k := strings.Index(a, `path="/v1/solve",code="200"`)
	if i < 0 || j < 0 || k < 0 || !(i < j && j < k) {
		t.Errorf("labelled series not sorted: healthz@%d batch@%d solve@%d", i, j, k)
	}
}

// TestMetricsCacheEntriesGauge: the lclgrid_cache_entries gauge renders
// the live entry count when a provider is installed and is omitted
// entirely when none is — a constant 0 would read as an empty cache,
// not an unplumbed one.
func TestMetricsCacheEntriesGauge(t *testing.T) {
	m := NewMetricsObserver()
	if text := metricText(t, m); strings.Contains(text, "lclgrid_cache_entries") {
		t.Fatalf("gauge rendered without a provider:\n%s", text)
	}
	n := 3
	m.SetCacheEntriesFunc(func() int { return n })
	if got := metricValue(t, metricText(t, m), "lclgrid_cache_entries"); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	n = 7 // the gauge reads live, not a snapshot
	if got := metricValue(t, metricText(t, m), "lclgrid_cache_entries"); got != 7 {
		t.Fatalf("gauge after change = %v, want 7", got)
	}
	m.SetCacheEntriesFunc(nil)
	if text := metricText(t, m); strings.Contains(text, "lclgrid_cache_entries") {
		t.Fatalf("gauge rendered after the provider was cleared:\n%s", text)
	}

	// An engine-backed server wires the gauge to CacheStats().Entries.
	eng := NewEngine()
	srv := NewServer(eng)
	_ = srv
	if _, _, err := eng.Synthesize(context.Background(), VertexColoring(5, 2), 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	text := metricText(t, srv.metrics)
	if got := metricValue(t, text, "lclgrid_cache_entries"); got != 1 {
		t.Fatalf("server gauge = %v, want 1", got)
	}
}

// TestMetricsRemoteCacheSeries pins the wire format of the remote-cache
// series: labelled op/outcome counters, per-op latency histograms and
// the degradation counter, all with HELP/TYPE headers and sorted label
// sets.
func TestMetricsRemoteCacheSeries(t *testing.T) {
	m := NewMetricsObserver()
	remoteOp := func(op, outcome string, elapsed time.Duration) {
		m.Observe(Event{Kind: EventRemoteOp, Op: op, Outcome: outcome, Elapsed: elapsed})
	}
	remoteOp("get", "hit", 2*time.Millisecond)
	remoteOp("get", "miss", time.Millisecond)
	remoteOp("get", "hit", 3*time.Millisecond)
	remoteOp("put", "stored", time.Millisecond)
	m.Observe(Event{Kind: EventRemoteDegraded})

	text := metricText(t, m)
	for _, name := range []string{
		"lclgrid_remote_cache_ops_total",
		"lclgrid_remote_cache_op_duration_seconds",
		"lclgrid_remote_cache_degraded_total",
	} {
		if !strings.Contains(text, "# HELP "+name+" ") || !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("family %s lacks HELP/TYPE headers", name)
		}
	}
	for _, want := range []string{
		`lclgrid_remote_cache_ops_total{op="get",outcome="hit"} 2`,
		`lclgrid_remote_cache_ops_total{op="get",outcome="miss"} 1`,
		`lclgrid_remote_cache_ops_total{op="put",outcome="stored"} 1`,
		`lclgrid_remote_cache_degraded_total 1`,
		`lclgrid_remote_cache_op_duration_seconds_count{op="get"} 3`,
		`lclgrid_remote_cache_op_duration_seconds_count{op="put"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing series %q in:\n%s", want, grepMetrics(text, "remote_cache"))
		}
	}
	// Histogram buckets carry the +Inf terminal and a sum.
	if !strings.Contains(text, `lclgrid_remote_cache_op_duration_seconds_bucket{op="get",le="+Inf"} 3`) {
		t.Errorf("get histogram lacks +Inf bucket:\n%s", grepMetrics(text, "remote_cache"))
	}
	if !strings.Contains(text, `lclgrid_remote_cache_op_duration_seconds_sum{op="get"}`) {
		t.Errorf("get histogram lacks a sum:\n%s", grepMetrics(text, "remote_cache"))
	}
	// Two renders are identical (sorted, deterministic).
	if a, b := metricText(t, m), metricText(t, m); a != b {
		t.Fatalf("remote-cache renders differ:\n%s\n---\n%s", a, b)
	}
}

// TestMetricsGatewaySeries pins the gateway-side series format.
func TestMetricsGatewaySeries(t *testing.T) {
	m := NewMetricsObserver()
	m.gatewayRequest("/v1/solve", "http://a:1", 200)
	m.gatewayRequest("/v1/solve", "http://a:1", 200)
	m.gatewayRequest("/v1/batch", "http://b:2", 503)
	m.gatewayRetry()
	m.gatewayError()

	text := metricText(t, m)
	for _, want := range []string{
		`lclgrid_gateway_requests_total{route="/v1/batch",shard="http://b:2",code="503"} 1`,
		`lclgrid_gateway_requests_total{route="/v1/solve",shard="http://a:1",code="200"} 2`,
		`lclgrid_gateway_retries_total 1`,
		`lclgrid_gateway_errors_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing series %q in:\n%s", want, grepMetrics(text, "gateway"))
		}
	}
	for _, name := range []string{
		"lclgrid_gateway_requests_total", "lclgrid_gateway_retries_total", "lclgrid_gateway_errors_total",
	} {
		if !strings.Contains(text, "# HELP "+name+" ") || !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("family %s lacks HELP/TYPE headers", name)
		}
	}
}

// TestMetricsTraceAndBuildInfoSeries pins the observability series added
// with distributed tracing: the trace deposit/eviction counters read
// live from a TraceBuffer, and lclgrid_build_info renders the binary
// identity with alphabetically sorted labels and a constant value of 1.
func TestMetricsTraceAndBuildInfoSeries(t *testing.T) {
	m := NewMetricsObserver()
	text := metricText(t, m)
	for _, name := range []string{"lclgrid_traces_total", "lclgrid_build_info"} {
		if strings.Contains(text, name) {
			t.Fatalf("%s rendered without a provider:\n%s", name, text)
		}
	}

	buf := NewTraceBuffer(2)
	m.SetTraceStatsFunc(buf.Stats)
	for i := 0; i < 3; i++ {
		StartTrace("serve", "req").Finish(buf)
	}
	text = metricText(t, m)
	if got := metricValue(t, text, "lclgrid_traces_total"); got != 3 {
		t.Errorf("lclgrid_traces_total = %v, want 3", got)
	}
	if got := metricValue(t, text, "lclgrid_traces_dropped_total"); got != 1 {
		t.Errorf("lclgrid_traces_dropped_total = %v, want 1", got)
	}

	m.SetBuildInfo("v1.2.3", "abcdef123456")
	text = metricText(t, m)
	want := `lclgrid_build_info{revision="abcdef123456",version="v1.2.3"} 1`
	if !strings.Contains(text, want) {
		t.Errorf("build info series missing; want %q in:\n%s", want, text)
	}
	if !strings.Contains(text, "# TYPE lclgrid_build_info gauge") {
		t.Error("lclgrid_build_info lacks its TYPE header")
	}

	// Empty identity degrades to "unknown", never an empty label.
	m.SetBuildInfo("", "")
	if text := metricText(t, m); !strings.Contains(text, `lclgrid_build_info{revision="unknown",version="unknown"} 1`) {
		t.Errorf("empty identity did not render as unknown:\n%s", text)
	}
}

// TestMetricsDiskTierRendersNoRemoteOps: only the fleet store reports
// remote-cache operations. An engine on a memory→disk stack — cold
// solve, warm solve, and a fresh engine loading the table back from
// disk — renders the remote-cache families with no samples.
func TestMetricsDiskTierRendersNoRemoteOps(t *testing.T) {
	dir := t.TempDir()
	m := NewMetricsObserver()
	for i := 0; i < 2; i++ {
		disk, err := NewDiskCache(dir, NewMemoryCache())
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(WithCache(disk), WithObserver(m))
		for _, seed := range []int64{1, 2} {
			if _, err := eng.Solve(context.Background(), SolveRequest{Key: "5col", N: 16, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
	}
	text := metricText(t, m)
	if got := metricValue(t, text, "lclgrid_syntheses_total"); got != 1 {
		t.Fatalf("syntheses = %v, want 1 (the second engine loads from disk)", got)
	}
	if strings.Contains(text, "lclgrid_remote_cache_ops_total{") {
		t.Errorf("disk tier reported remote-cache ops:\n%s", grepMetrics(text, "remote_cache"))
	}
	if got := metricValue(t, text, "lclgrid_remote_cache_degraded_total"); got != 0 {
		t.Errorf("remote degraded = %v, want 0", got)
	}
}
