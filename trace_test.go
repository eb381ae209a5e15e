package lclgrid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseTraceparent pins the W3C traceparent acceptance surface: only
// version 00 with non-zero lowercase-hex ids and lowercase-hex flags
// parses, and a span's own Traceparent round-trips through the parser.
func TestParseTraceparent(t *testing.T) {
	for _, h := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", // not sampled
	} {
		tid, sid, ok := ParseTraceparent(h)
		if !ok || tid != "0af7651916cd43dd8448eb211c80319c" || sid != "b7ad6b7169203331" {
			t.Fatalf("valid traceparent %q rejected: tid=%q sid=%q ok=%v", h, tid, sid, ok)
		}
	}

	rejects := []string{
		"",
		"garbage",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // all-zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // all-zero span id
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-011", // shifted dashes
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-011",
	}
	for _, h := range rejects {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}

	tr := StartTrace("serve", "/v1/solve")
	tp := tr.Root().Traceparent()
	tid, sid, ok := ParseTraceparent(tp)
	if !ok || tid != tr.ID() {
		t.Fatalf("own traceparent %q does not round-trip (tid=%q ok=%v)", tp, tid, ok)
	}
	if sid == "" {
		t.Fatal("round-tripped span id is empty")
	}

	// An invalid inbound trace id degrades to a fresh trace, never an
	// unusable one.
	j := JoinTrace("serve", "x", "not-hex", "b7ad6b7169203331")
	if !isHexID(j.ID(), 32) {
		t.Fatalf("JoinTrace with bad trace id produced id %q", j.ID())
	}
}

// FuzzParseTraceparent: an accepted header has non-zero lowercase-hex
// ids, and re-rendering it from the parsed fields reproduces it exactly.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01")
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		for _, id := range []string{tid, sid} {
			if strings.Trim(id, "0123456789abcdef") != "" || strings.Trim(id, "0") == "" {
				t.Fatalf("ParseTraceparent(%q) accepted id %q, want non-zero lowercase hex", h, id)
			}
		}
		if again := "00-" + tid + "-" + sid + "-" + h[53:]; again != h {
			t.Fatalf("ParseTraceparent(%q) re-renders as %q", h, again)
		}
	})
}

// TestNilSpanSafety checks the untraced path really is a no-op: every
// span helper tolerates the nil span an untraced context yields.
func TestNilSpanSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan on an untraced context returned a live span")
	}
	if ctx2 != ctx {
		t.Error("StartSpan on an untraced context replaced the context")
	}
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetError(fmt.Errorf("boom"))
	if got := sp.TraceID(); got != "" {
		t.Errorf("nil span TraceID = %q", got)
	}
	if got := sp.Traceparent(); got != "" {
		t.Errorf("nil span Traceparent = %q", got)
	}
	if got := TraceIDFromContext(ctx); got != "" {
		t.Errorf("untraced TraceIDFromContext = %q", got)
	}
	h := http.Header{}
	injectTraceparent(ctx, h)
	if len(h) != 0 {
		t.Errorf("untraced injectTraceparent set headers: %v", h)
	}
	var buf *TraceBuffer
	buf.Add(StartTrace("serve", "req")) // nil buffer sink
	buf.SetLogger(nil, 0)               // nil buffer logger
	if buf.Len() != 0 {
		t.Error("nil buffer Len != 0")
	}
}

// TestTraceBufferBound hammers the ring from 16 goroutines and checks
// the bound holds exactly: capacity retained, everything else counted
// as dropped, nothing lost from the accounting. Run under -race this is
// also the buffer's concurrency test.
func TestTraceBufferBound(t *testing.T) {
	const capacity, writers, perWriter = 8, 16, 50
	buf := NewTraceBuffer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := StartTrace("serve", fmt.Sprintf("req-%d-%d", w, i))
				tr.Finish(buf)
			}
		}(w)
	}
	wg.Wait()

	if got := buf.Len(); got != capacity {
		t.Errorf("Len = %d, want %d", got, capacity)
	}
	added, dropped := buf.Stats()
	if added != writers*perWriter {
		t.Errorf("added = %d, want %d", added, writers*perWriter)
	}
	if dropped != writers*perWriter-capacity {
		t.Errorf("dropped = %d, want %d", dropped, writers*perWriter-capacity)
	}
	if got := len(buf.Snapshot(0)); got != capacity {
		t.Errorf("Snapshot returned %d traces, want %d", got, capacity)
	}
	// The filter drops everything at an absurd threshold.
	if got := len(buf.Snapshot(time.Hour)); got != 0 {
		t.Errorf("Snapshot(1h) returned %d traces, want 0", got)
	}
}

// TestTraceSnapshotNewestFirst checks /debug/traces ordering: the most
// recently finished trace leads the snapshot.
func TestTraceSnapshotNewestFirst(t *testing.T) {
	buf := NewTraceBuffer(4)
	for i := 0; i < 6; i++ {
		tr := StartTrace("serve", fmt.Sprintf("req-%d", i))
		tr.Finish(buf)
	}
	snap := buf.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d, want 4", len(snap))
	}
	want := []string{"req-5", "req-4", "req-3", "req-2"}
	for i, doc := range snap {
		if doc.Name != want[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, doc.Name, want[i])
		}
	}
}

// TestTracesHandlerJSONShape pins the GET /debug/traces wire format —
// the document field names are an API now and dashboards parse them.
func TestTracesHandlerJSONShape(t *testing.T) {
	buf := NewTraceBuffer(4)
	tr := StartTrace("serve", "POST /v1/solve")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	_, sp := StartSpan(ctx, "synthesis")
	sp.SetAttr("synth_key", "5col/k=2")
	sp.End()
	tr.Root().SetAttr("status", "200")
	tr.Finish(buf)

	rec := httptest.NewRecorder()
	buf.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	var page struct {
		Count   int    `json:"count"`
		Added   uint64 `json:"added"`
		Dropped uint64 `json:"dropped"`
		Traces  []struct {
			TraceID   string  `json:"trace_id"`
			Service   string  `json:"service"`
			Name      string  `json:"name"`
			ElapsedMS float64 `json:"elapsed_ms"`
			Spans     []struct {
				ID        string            `json:"id"`
				Name      string            `json:"name"`
				StartMS   float64           `json:"start_ms"`
				ElapsedMS float64           `json:"elapsed_ms"`
				Attrs     map[string]string `json:"attrs"`
				Children  []struct {
					Name  string            `json:"name"`
					Attrs map[string]string `json:"attrs"`
				} `json:"children"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("decode /debug/traces: %v\n%s", err, rec.Body)
	}
	if page.Count != 1 || page.Added != 1 || page.Dropped != 0 || len(page.Traces) != 1 {
		t.Fatalf("page = %+v, want one trace", page)
	}
	doc := page.Traces[0]
	if doc.Service != "serve" || doc.Name != "POST /v1/solve" || !isHexID(doc.TraceID, 32) {
		t.Errorf("trace header = %+v", doc)
	}
	if len(doc.Spans) != 1 {
		t.Fatalf("span tree has %d roots, want 1", len(doc.Spans))
	}
	root := doc.Spans[0]
	if root.Name != "POST /v1/solve" || root.Attrs["status"] != "200" || !isHexID(root.ID, 16) {
		t.Errorf("root span = %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "synthesis" ||
		root.Children[0].Attrs["synth_key"] != "5col/k=2" {
		t.Errorf("children = %+v, want one synthesis span with synth_key", root.Children)
	}

	// Guardrails: only GET, and min_ms must be a non-negative number.
	rec = httptest.NewRecorder()
	buf.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/traces: status %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	buf.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?min_ms=nope", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad min_ms: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	buf.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?min_ms=100000", nil))
	var filtered TracesPage
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil || filtered.Count != 0 {
		t.Errorf("min_ms filter: count %d err %v, want 0 traces", filtered.Count, err)
	}
}

// TestServerTraceSolve drives a traced cold solve through the server
// and checks the whole observability contract on one request: the
// X-Trace-Id echo, the /debug/traces deposit, and a span tree carrying
// the plan, the ranked strategies, and the synthesis with its SynthKey
// and SAT-statistics attributes.
func TestServerTraceSolve(t *testing.T) {
	buf := NewTraceBuffer(16)
	srv := NewServer(NewEngine(), WithServerTracing(buf))
	base, _ := startServer(t, srv)

	resp, body := postJSON(t, base+"/v1/solve", `{"key":"5col","n":12}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	tid := resp.Header.Get(TraceIDHeader)
	if !isHexID(tid, 32) {
		t.Fatalf("X-Trace-Id = %q, want a 32-hex trace id", tid)
	}

	snap := buf.Snapshot(0)
	if len(snap) == 0 {
		t.Fatal("no trace deposited")
	}
	doc := snap[0]
	if doc.TraceID != tid {
		t.Errorf("buffer trace id %q != header %q", doc.TraceID, tid)
	}
	if doc.Service != "serve" {
		t.Errorf("service = %q", doc.Service)
	}

	names := spanNames(doc.Spans, nil)
	for _, want := range []string{"plan", "strategy", "cache.miss", "synthesis"} {
		if !names[want] {
			t.Errorf("span %q missing from trace; have %v", want, names)
		}
	}
	synth := findSpan(doc.Spans, "synthesis")
	if synth == nil {
		t.Fatal("no synthesis span")
	}
	if synth.Attrs["synth_key"] == "" {
		t.Error("synthesis span has no synth_key attribute")
	}
	for _, attr := range []string{"conflicts", "decisions", "propagations"} {
		if _, ok := synth.Attrs[attr]; !ok {
			t.Errorf("synthesis span missing %q attr; attrs=%v", attr, synth.Attrs)
		}
	}

	// The served cached re-solve traces a cache.hit instead.
	resp, body = postJSON(t, base+"/v1/solve", `{"key":"5col","n":12}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached solve: status %d: %s", resp.StatusCode, body)
	}
	hit := buf.Snapshot(0)[0]
	if hitNames := spanNames(hit.Spans, nil); !hitNames["cache.hit"] || hitNames["synthesis"] {
		t.Errorf("cached solve spans = %v, want cache.hit and no synthesis", hitNames)
	}

	// A caller-supplied traceparent is joined, not replaced.
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(`{"key":"5col","n":12}`))
	req.Header.Set(TraceparentHeader, parent)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(TraceIDHeader); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("joined trace id = %q, want the traceparent's", got)
	}
	joined := buf.Snapshot(0)[0]
	if joined.Parent != "00f067aa0ba902b7" {
		t.Errorf("joined trace parent = %q, want the caller's span id", joined.Parent)
	}
}

// spanNames flattens a span tree into a name set.
func spanNames(spans []*SpanDoc, into map[string]bool) map[string]bool {
	if into == nil {
		into = make(map[string]bool)
	}
	for _, sp := range spans {
		into[sp.Name] = true
		spanNames(sp.Children, into)
	}
	return into
}

// findSpan returns the first span named name in the tree, depth-first.
func findSpan(spans []*SpanDoc, name string) *SpanDoc {
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
		if found := findSpan(sp.Children, name); found != nil {
			return found
		}
	}
	return nil
}

// TestFleetTraceE2E is the tentpole acceptance check: one request with a
// caller traceparent enters the gateway, is forwarded to the serving
// shard, whose cold synthesis takes a cluster lease on the cachesvc —
// and afterwards all three processes' /debug/traces buffers hold a
// segment of the SAME trace id, linked parent→child.
func TestFleetTraceE2E(t *testing.T) {
	// cachesvc with its own trace buffer.
	csBuf := NewTraceBuffer(64)
	cs := NewCacheServer(nil, WithCacheTracing(csBuf))
	csURL := httptest.NewServer(cs)
	defer csURL.Close()

	// The serving shard: engine over the remote cache, traced server.
	remote, err := NewRemoteCache(csURL.URL, nil, WithRemoteOwner("shard1"))
	if err != nil {
		t.Fatal(err)
	}
	shardBuf := NewTraceBuffer(64)
	shard := NewServer(NewEngine(WithCache(remote)), WithServerTracing(shardBuf))
	shardBase, _ := startServer(t, shard)

	// The gateway in front.
	gwBuf := NewTraceBuffer(64)
	gw, err := NewGateway([]string{shardBase}, WithGatewayTracing(gwBuf))
	if err != nil {
		t.Fatal(err)
	}
	gwBase := startGateway(t, gw)

	const parent = "00-1af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, _ := http.NewRequest(http.MethodPost, gwBase+"/v1/solve",
		strings.NewReader(`{"key":"5col","n":12}`))
	req.Header.Set(TraceparentHeader, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway solve: status %d", resp.StatusCode)
	}
	const wantTID = "1af7651916cd43dd8448eb211c80319c"
	if got := resp.Header.Get(TraceIDHeader); got != wantTID {
		t.Fatalf("gateway X-Trace-Id = %q, want %q", got, wantTID)
	}

	find := func(buf *TraceBuffer, service string) *TraceDoc {
		for _, doc := range buf.Snapshot(0) {
			if doc.TraceID == wantTID {
				return doc
			}
		}
		t.Fatalf("trace %s not found in the %s buffer", wantTID, service)
		return nil
	}
	gwDoc := find(gwBuf, "gateway")
	shardDoc := find(shardBuf, "serve")
	csDoc := find(csBuf, "cachesvc")

	// The caller's span parents the gateway segment; the gateway's
	// forward span parents the shard segment.
	if gwDoc.Parent != "b7ad6b7169203331" {
		t.Errorf("gateway segment parent = %q, want the caller's span id", gwDoc.Parent)
	}
	fwd := findSpan(gwDoc.Spans, "forward")
	if fwd == nil {
		t.Fatalf("gateway trace has no forward span: %v", spanNames(gwDoc.Spans, nil))
	}
	if shardDoc.Parent != fwd.ID {
		t.Errorf("shard segment parent = %q, want the gateway forward span %q", shardDoc.Parent, fwd.ID)
	}
	if csDoc.Parent == "" {
		t.Error("cachesvc segment has no parent span — traceparent did not propagate")
	}

	// The shard's cold solve attributed its synthesis and lease work.
	shardNames := spanNames(shardDoc.Spans, nil)
	for _, want := range []string{"plan", "strategy", "synthesis", "lease.coordinate"} {
		if !shardNames[want] {
			t.Errorf("shard trace missing span %q; have %v", want, shardNames)
		}
	}
	if !strings.HasPrefix(csDoc.Name, "POST /lease/") && !strings.HasPrefix(csDoc.Name, "GET /cache/") {
		t.Errorf("cachesvc segment name = %q, want a lease or cache operation", csDoc.Name)
	}
}

// TestServerErrorBodiesCarryTraceID pins the error contract: 429, 413
// and 504 responses are {"error":..., "trace_id":...} JSON whose
// trace_id matches the X-Trace-Id header, so a shed or timed-out client
// can still quote the trace.
func TestServerErrorBodiesCarryTraceID(t *testing.T) {
	checkError := func(t *testing.T, resp *http.Response, body []byte, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantCode, body)
		}
		var e struct {
			Error   string `json:"error"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("not an error document: %s", body)
		}
		if !isHexID(e.TraceID, 32) {
			t.Fatalf("trace_id = %q, want a 32-hex trace id: %s", e.TraceID, body)
		}
		if hdr := resp.Header.Get(TraceIDHeader); hdr != e.TraceID {
			t.Errorf("X-Trace-Id %q != body trace_id %q", hdr, e.TraceID)
		}
	}

	t.Run("413", func(t *testing.T) {
		srv := NewServer(NewEngine(), WithMaxBodyBytes(64), WithServerTracing(NewTraceBuffer(8)))
		base, _ := startServer(t, srv)
		resp, body := postJSON(t, base+"/v1/solve",
			`{"key":"4col","ids":[`+strings.Repeat("1,", 200)+`1]}`)
		checkError(t, resp, body, http.StatusRequestEntityTooLarge)
	})

	t.Run("504", func(t *testing.T) {
		reg, _, release := gatedRegistry(t)
		defer release()
		srv := NewServer(NewEngine(WithRegistry(reg)),
			WithRequestTimeout(50*time.Millisecond), WithServerTracing(NewTraceBuffer(8)))
		base, _ := startServer(t, srv)
		resp, body := postJSON(t, base+"/v1/solve", `{"key":"gate","n":4}`)
		checkError(t, resp, body, http.StatusGatewayTimeout)
	})

	t.Run("429", func(t *testing.T) {
		reg, started, release := gatedRegistry(t)
		srv := NewServer(NewEngine(WithRegistry(reg)),
			WithMaxInflight(1), WithServerTracing(NewTraceBuffer(8)))
		base, _ := startServer(t, srv)
		firstDone := make(chan struct{})
		go func() {
			defer close(firstDone)
			resp, _ := postJSON(t, base+"/v1/solve", `{"key":"gate","n":4}`)
			resp.Body.Close()
		}()
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("gated solve did not start")
		}
		resp, body := postJSON(t, base+"/v1/solve", `{"key":"is","n":4}`)
		checkError(t, resp, body, http.StatusTooManyRequests)
		release()
		<-firstDone
	})
}

// TestBatchLinesCarryTraceID checks the JSONL batch surface: every
// result line of a traced batch carries the request's trace id.
func TestBatchLinesCarryTraceID(t *testing.T) {
	buf := NewTraceBuffer(8)
	srv := NewServer(NewEngine(), WithServerTracing(buf))
	base, _ := startServer(t, srv)

	lines := batchLines(t, base, `{"key":"5col","n":8}`+"\n"+`{"key":"mis","n":8}`, "")
	if len(lines) != 2 {
		t.Fatalf("batch returned %d lines, want 2", len(lines))
	}
	tid := buf.Snapshot(0)[0].TraceID
	for _, line := range lines {
		var l struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad line %s: %v", line, err)
		}
		if l.TraceID != tid {
			t.Errorf("line trace_id = %q, want %q: %s", l.TraceID, tid, line)
		}
	}
}

// newTestJSONLogger is a Debug-level JSON slog logger writing to w.
func newTestJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestTraceBufferSlowLogging checks SetLogger's two paths: every
// deposit logs a Debug "request" line with trace correlation fields,
// and a trace past the slow threshold logs a Warn "slow request" line
// carrying the span tree.
func TestTraceBufferSlowLogging(t *testing.T) {
	var out bytes.Buffer
	logger := newTestJSONLogger(&out)
	buf := NewTraceBuffer(8)
	buf.SetLogger(logger, 10*time.Millisecond)

	fast := StartTrace("serve", "fast")
	fast.Finish(buf)

	slow := StartTrace("serve", "slow")
	time.Sleep(20 * time.Millisecond)
	slow.Finish(buf)

	dec := json.NewDecoder(&out)
	var fastLine, slowLine map[string]any
	if err := dec.Decode(&fastLine); err != nil {
		t.Fatalf("no fast log line: %v", err)
	}
	if err := dec.Decode(&slowLine); err != nil {
		t.Fatalf("no slow log line: %v", err)
	}
	if fastLine["msg"] != "request" || fastLine["trace_id"] != fast.ID() {
		t.Errorf("fast line = %v", fastLine)
	}
	if slowLine["msg"] != "slow request" || slowLine["level"] != "WARN" {
		t.Errorf("slow line = %v", slowLine)
	}
	if slowLine["trace_id"] != slow.ID() {
		t.Errorf("slow line trace_id = %v, want %s", slowLine["trace_id"], slow.ID())
	}
	if tree, _ := slowLine["spans"].(string); !strings.Contains(tree, `"name":"slow"`) {
		t.Errorf("slow line has no span tree: %v", slowLine["spans"])
	}
}

// BenchmarkTracedSolveCached is BenchmarkServerSolveCached with tracing
// on — the CI gate that the trace plumbing stays within a few percent
// of the untraced cached-solve path.
func BenchmarkTracedSolveCached(b *testing.B) {
	srv := NewServer(NewEngine(), WithServerTracing(NewTraceBuffer(64)))
	body := []byte(`{"key":"5col","n":12}`)
	warm := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm solve: status %d: %s", rec.Code, rec.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
