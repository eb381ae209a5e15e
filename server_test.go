package lclgrid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer boots srv on an ephemeral port and returns its base URL
// and a shutdown func that cancels the serve context and returns
// Serve's error (nil = clean drain). Shutdown is idempotent and runs as
// a cleanup if the test does not call it.
func startServer(t *testing.T, srv *Server) (string, func() error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	var once sync.Once
	var serveErr error
	shutdown := func() error {
		once.Do(func() {
			cancel()
			serveErr = <-done
		})
		return serveErr
	}
	t.Cleanup(func() {
		if err := shutdown(); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	return "http://" + l.Addr().String(), shutdown
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", url, err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", url, err)
	}
	return resp, data
}

// normalizeResult strips the run-dependent wall clock from a Result
// JSON document and re-marshals it canonically, so two runs of the same
// deterministic request can be compared byte for byte.
func normalizeResult(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("result document does not decode: %v\n%s", err, data)
	}
	delete(m, "elapsed_ns")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return out
}

// gateSolver blocks inside Solve until its gate closes — the in-flight
// request the admission, timeout and drain tests need.
type gateSolver struct {
	gate    <-chan struct{}
	started chan<- struct{}
}

func (g *gateSolver) Name() string { return "gate" }

func (g *gateSolver) Solve(ctx context.Context, tor *Torus, ids []int, opts ...Option) (*Result, error) {
	if g.started != nil {
		g.started <- struct{}{}
	}
	select {
	case <-g.gate:
		return &Result{Problem: "gated", Solver: g.Name(), Class: ClassO1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// gatedRegistry is the default catalogue plus a "gate" key whose solver
// blocks until the returned release func is called. started receives one
// element per solve that entered the gate.
func gatedRegistry(t *testing.T) (reg *Registry, started chan struct{}, release func()) {
	t.Helper()
	reg = DefaultRegistry()
	gate := make(chan struct{})
	started = make(chan struct{}, 64)
	spec := &ProblemSpec{
		Key: "gate", Name: "gated", Dims: 2, Class: ClassO1, MinSide: 4,
		Direct: func(e *Engine) Solver { return &gateSolver{gate: gate, started: started} },
		Verify: func(*Torus, *Result) error { return nil },
	}
	if err := reg.Register(spec); err != nil {
		t.Fatalf("register gate spec: %v", err)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return reg, started, release
}

// TestServerSolveMatchesEngine is the wire-fidelity acceptance check: a
// server on an ephemeral port must return byte-equivalent Result JSON
// to an Engine.Solve of the same request (the `lclgrid run` path),
// modulo the wall clock.
func TestServerSolveMatchesEngine(t *testing.T) {
	srv := NewServer(NewEngine())
	base, _ := startServer(t, srv)

	reqs := []string{
		`{"key":"orient2","n":8}`,
		`{"key":"mis","n":12,"seed":7}`,
		`{"key":"3col","n":4}`,
	}
	ref := NewEngine() // a fresh engine, as `lclgrid run` would build
	for _, doc := range reqs {
		var req SolveRequest
		if err := json.Unmarshal([]byte(doc), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", doc, err)
		}
		want, err := ref.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("engine solve %s: %v", doc, err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal reference result: %v", err)
		}
		resp, got := postJSON(t, base+"/v1/solve", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", doc, resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", doc, ct)
		}
		if a, b := normalizeResult(t, got), normalizeResult(t, wantJSON); !bytes.Equal(a, b) {
			t.Errorf("%s: served result differs from engine result\nserver: %s\nengine: %s", doc, a, b)
		}
	}
}

// TestServerWarmBootServesCatalogueWithZeroSyntheses is the warm-boot
// acceptance check: warm a cache directory, boot a fresh server over
// it, solve every key in the catalogue through HTTP, and verify via the
// metrics endpoint that the served traffic ran zero SAT syntheses and
// that the counters reflect exactly the served requests.
func TestServerWarmBootServesCatalogueWithZeroSyntheses(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the whole catalogue")
	}
	dir := t.TempDir()
	warmEng := NewEngine(WithCacheDir(dir))
	ws, err := warmEng.Warm(context.Background())
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if ws.Syntheses == 0 {
		t.Fatalf("cold warm performed no syntheses: %+v", ws)
	}

	// A restarted server: fresh engine, same cache directory.
	m := NewMetricsObserver()
	eng := NewEngine(WithCacheDir(dir), WithObserver(m))
	srv := NewServer(eng, WithMetricsObserver(m))
	base, _ := startServer(t, srv)

	keys := eng.Registry().Keys()
	for _, key := range keys {
		resp, body := postJSON(t, base+"/v1/solve", fmt.Sprintf(`{"key":%q}`, key))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: status %d: %s", key, resp.StatusCode, body)
		}
	}

	_, metrics := getBody(t, base+"/metrics")
	body := string(metrics)
	if got := metricValue(t, body, "lclgrid_syntheses_total"); got != 0 {
		t.Errorf("warm-booted server ran %v syntheses, want 0\n%s", got, body)
	}
	if got := metricValue(t, body, "lclgrid_requests_total"); got != float64(len(keys)) {
		t.Errorf("lclgrid_requests_total = %v, want %d", got, len(keys))
	}
	if got := metricValue(t, body, "lclgrid_request_errors_total"); got != 0 {
		t.Errorf("lclgrid_request_errors_total = %v, want 0", got)
	}
	if got := metricValue(t, body, "lclgrid_cache_hits_total"); got == 0 {
		t.Error("no cache hits recorded for a warm-booted catalogue sweep")
	}
	want := fmt.Sprintf(`lclgrid_http_requests_total{path="/v1/solve",code="200"} %d`, len(keys))
	if !strings.Contains(body, want) {
		t.Errorf("missing %q in metrics:\n%s", want, body)
	}
}

// TestServerBatchStreamsAndDrains is the graceful-shutdown acceptance
// check: shutdown begins while a batch is in flight, and every JSONL
// line still arrives before the connection closes.
func TestServerBatchStreamsAndDrains(t *testing.T) {
	reg, started, release := gatedRegistry(t)
	eng := NewEngine(WithRegistry(reg))
	srv := NewServer(eng, WithBatchWorkers(4))
	base, shutdown := startServer(t, srv)

	body := strings.Repeat(`{"key":"gate","n":4}`+"\n", 3)
	type lineOrErr struct {
		line []byte
		err  error
	}
	lines := make(chan lineOrErr)
	go func() {
		resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			lines <- lineOrErr{err: err}
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- lineOrErr{line: append([]byte(nil), sc.Bytes()...)}
		}
		lines <- lineOrErr{err: sc.Err()} // nil on clean EOF
	}()

	// All three solves in flight...
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("batch solves did not start")
		}
	}
	// ...then shutdown begins with the batch mid-stream.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- shutdown() }()
	// Release the gate and collect every line.
	time.Sleep(50 * time.Millisecond) // let Shutdown enter its drain loop
	release()

	got := make(map[int]bool)
	for len(got) < 3 {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream ended early with %d/3 lines: %v", len(got), l.err)
			}
			var line struct {
				Index  *int            `json:"index"`
				Key    string          `json:"key"`
				Result json.RawMessage `json:"result"`
				Error  string          `json:"error"`
			}
			if err := json.Unmarshal(l.line, &line); err != nil {
				t.Fatalf("bad line %s: %v", l.line, err)
			}
			if line.Index == nil || line.Error != "" || len(line.Result) == 0 {
				t.Fatalf("dropped or failed line during drain: %s", l.line)
			}
			got[*line.Index] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("drain dropped lines: got %d/3", len(got))
		}
	}
	if l := <-lines; l.err != nil {
		t.Fatalf("stream did not end cleanly: %v", l.err)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete after the batch drained")
	}
	// The drained server refuses new connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("drained server still accepts connections")
	}
}

// TestServerBatchOrdered checks ?ordered=1 restores input order while
// the default stream yields in completion order.
func TestServerBatchOrdered(t *testing.T) {
	reg, started, release := gatedRegistry(t)
	eng := NewEngine(WithRegistry(reg))
	srv := NewServer(eng, WithBatchWorkers(2))
	base, _ := startServer(t, srv)

	// Default order: the gated line 0 completes after the fast line 1.
	body := `{"key":"gate","n":4}` + "\n" + `{"key":"is","n":4}` + "\n"
	respCh := make(chan [][]byte, 1)
	go func() {
		resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			respCh <- nil
			return
		}
		defer resp.Body.Close()
		var out [][]byte
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			out = append(out, append([]byte(nil), sc.Bytes()...))
		}
		respCh <- out
	}()
	<-started // the gate line is in flight; the fast line races ahead
	release()
	lines := <-respCh
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %s", len(lines), bytes.Join(lines, []byte("|")))
	}

	// Ordered: same body, indexes must ascend regardless of completion.
	resp, data := postJSON(t, base+"/v1/batch?ordered=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ordered batch: status %d", resp.StatusCode)
	}
	var indexes []int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var l struct {
			Index *int `json:"index"`
		}
		if err := json.Unmarshal(line, &l); err != nil || l.Index == nil {
			t.Fatalf("bad ordered line %s: %v", line, err)
		}
		indexes = append(indexes, *l.Index)
	}
	if len(indexes) != 2 || indexes[0] != 0 || indexes[1] != 1 {
		t.Errorf("ordered batch yielded indexes %v, want [0 1]", indexes)
	}
}

// TestServerAdmissionControl checks the in-flight bound: the saturated
// server sheds the second solve with 429 + Retry-After while the cheap
// endpoints stay available, and serves again once the slot frees.
func TestServerAdmissionControl(t *testing.T) {
	reg, started, release := gatedRegistry(t)
	m := NewMetricsObserver()
	eng := NewEngine(WithRegistry(reg), WithObserver(m))
	srv := NewServer(eng, WithMetricsObserver(m), WithMaxInflight(1))
	base, _ := startServer(t, srv)

	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, base+"/v1/solve", `{"key":"gate","n":4}`)
		firstDone <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first solve did not start")
	}

	resp, body := postJSON(t, base+"/v1/solve", `{"key":"is","n":4}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}
	if !strings.Contains(string(body), "capacity") {
		t.Errorf("429 body does not explain the rejection: %s", body)
	}
	// Observability survives saturation.
	if resp, _ := getBody(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under saturation: status %d", resp.StatusCode)
	}
	resp, metrics := getBody(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics under saturation: status %d", resp.StatusCode)
	}
	if got := metricValue(t, string(metrics), "lclgrid_http_throttled_total"); got != 1 {
		t.Errorf("lclgrid_http_throttled_total = %v, want 1", got)
	}
	if got := metricValue(t, string(metrics), "lclgrid_requests_inflight"); got != 1 {
		t.Errorf("lclgrid_requests_inflight = %v, want 1 (the gated solve)", got)
	}

	release()
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("gated solve: status %d, want 200", code)
	}
	// The slot is free again.
	if resp, body := postJSON(t, base+"/v1/solve", `{"key":"is","n":4}`); resp.StatusCode != http.StatusOK {
		t.Errorf("post-release solve: status %d: %s", resp.StatusCode, body)
	}
}

// TestServerRequestTimeout checks the per-request deadline derived from
// the server config aborts a hung solve with 504.
func TestServerRequestTimeout(t *testing.T) {
	reg, _, release := gatedRegistry(t)
	defer release()
	eng := NewEngine(WithRegistry(reg))
	srv := NewServer(eng, WithRequestTimeout(50*time.Millisecond))
	base, _ := startServer(t, srv)

	start := time.Now()
	resp, body := postJSON(t, base+"/v1/solve", `{"key":"gate","n":4}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hung solve: status %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, deadline was 50ms", elapsed)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("504 body does not name the deadline: %s", body)
	}
}

// TestServerStalledBodyReleasesSlot checks the slowloris defence on
// both frontends that admit work: a client that sends half a request
// document and stalls is cut off by the read deadline instead of
// parking the handler (and its only admission slot) forever.
func TestServerStalledBodyReleasesSlot(t *testing.T) {
	const timeout = 200 * time.Millisecond
	cases := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"serve", func(t *testing.T) string {
			base, _ := startServer(t, NewServer(NewEngine(), WithRequestTimeout(timeout), WithMaxInflight(1)))
			return base
		}},
		{"gateway", func(t *testing.T) string {
			shard, _ := startServer(t, NewServer(NewEngine()))
			gw, err := NewGateway([]string{shard}, WithGatewayRequestTimeout(timeout), WithGatewayMaxInflight(1))
			if err != nil {
				t.Fatal(err)
			}
			return startGateway(t, gw)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.start(t)
			conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			partial := `{"key":"4col",`
			fmt.Fprintf(conn, "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n%s", partial)
			// The frontend must answer within the read deadline, not hang.
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			buf := make([]byte, 1024)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("stalled request got no response: %v", err)
			}
			if !strings.Contains(string(buf[:n]), "400") {
				t.Errorf("stalled request response is not a 400:\n%s", buf[:n])
			}
			// The admission slot is free again: a real request serves.
			resp, body := postJSON(t, base+"/v1/solve", `{"key":"is","n":4}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("solve after stalled client: status %d: %s", resp.StatusCode, body)
			}
		})
	}
}

// TestServerClientDisconnectIs499 checks a client abort mid-solve is
// recorded as 499 (client closed request), not as a 504 server
// deadline.
func TestServerClientDisconnectIs499(t *testing.T) {
	reg, started, release := gatedRegistry(t)
	defer release()
	m := NewMetricsObserver()
	eng := NewEngine(WithRegistry(reg), WithObserver(m))
	srv := NewServer(eng, WithMetricsObserver(m))
	base, _ := startServer(t, srv)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve", strings.NewReader(`{"key":"gate","n":4}`))
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("gated solve did not start")
	}
	cancel() // the client goes away; the gate never opens
	if err := <-errCh; err == nil {
		t.Fatal("cancelled client request unexpectedly succeeded")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, metrics := getBody(t, base+"/metrics")
		if strings.Contains(string(metrics), `path="/v1/solve",code="499"`) {
			break
		}
		if strings.Contains(string(metrics), `path="/v1/solve",code="504"`) {
			t.Fatal("client abort recorded as a 504 server deadline")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 499 series appeared:\n%s", metrics)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerRejectsBadRequests pins the 4xx surface of /v1/solve.
func TestServerRejectsBadRequests(t *testing.T) {
	srv := NewServer(NewEngine(), WithMaxBodyBytes(256))
	base, _ := startServer(t, srv)

	tests := []struct {
		name string
		body string
		code int
	}{
		{"malformed json", `{"key":`, http.StatusBadRequest},
		{"unknown key", `{"key":"nope","n":8}`, http.StatusBadRequest},
		{"no problem", `{"n":8}`, http.StatusBadRequest},
		{"huge n", `{"key":"4col","n":1000000000}`, http.StatusBadRequest},
		{"trailing document", `{"key":"4col","n":8}{"key":"mis"}`, http.StatusBadRequest},
		{"oversized body", `{"key":"4col","ids":[` + strings.Repeat("1,", 200) + `1]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := postJSON(t, base+"/v1/solve", tt.body)
			if resp.StatusCode != tt.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tt.code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error response is not an {\"error\": ...} document: %s", body)
			}
		})
	}

	// Method mismatches are 405 from the mux patterns.
	resp, _ := getBody(t, base+"/v1/solve")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
}

// TestServerBatchDeadlineLeavesTruncationMarker checks a deadline that
// stops the batch before the input is fully read leaves an in-band
// terminal error line — a client counting lines must be able to tell
// "all served" from "truncated".
func TestServerBatchDeadlineLeavesTruncationMarker(t *testing.T) {
	reg, started, release := gatedRegistry(t)
	defer release()
	eng := NewEngine(WithRegistry(reg))
	srv := NewServer(eng, WithBatchWorkers(1), WithRequestTimeout(300*time.Millisecond))
	base, _ := startServer(t, srv)

	// Worker pool of 1: the first gated solve blocks the pool, so the
	// deadline fires with most of the input still unread.
	body := strings.Repeat(`{"key":"gate","n":4}`+"\n", 8)
	go func() {
		<-started // let the first solve enter the gate; the rest queue
	}()
	resp, data := postJSON(t, base+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("no output lines")
	}
	var last struct {
		Index *int   `json:"index"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("bad terminal line %s: %v", lines[len(lines)-1], err)
	}
	if last.Index != nil || !strings.Contains(last.Error, "truncated") {
		t.Errorf("terminal line is not a truncation marker: %s", lines[len(lines)-1])
	}
	// A complete batch, by contrast, ends without a marker.
	resp, data = postJSON(t, base+"/v1/batch", `{"key":"is","n":4}`+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete batch: status %d", resp.StatusCode)
	}
	lines = bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("complete batch produced %d lines, want 1: %s", len(lines), data)
	}
	var only struct {
		Index *int   `json:"index"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[0], &only); err != nil || only.Index == nil || only.Error != "" {
		t.Errorf("complete batch line wrong: %s (err %v)", lines[0], err)
	}
}

// TestServerExplainRunsNoSAT checks /v1/explain returns the ranked plan
// with zero syntheses started, and /v1/problems lists the catalogue.
func TestServerExplainRunsNoSAT(t *testing.T) {
	m := NewMetricsObserver()
	eng := NewEngine(WithObserver(m))
	srv := NewServer(eng, WithMetricsObserver(m))
	base, _ := startServer(t, srv)

	resp, body := postJSON(t, base+"/v1/explain", `{"key":"4col","n":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	var plan Plan
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatalf("explain response does not decode as a Plan: %v", err)
	}
	if plan.Key != "4col" || len(plan.Strategies) == 0 {
		t.Errorf("unexpected plan: %+v", plan)
	}
	_, metrics := getBody(t, base+"/metrics")
	if got := metricValue(t, string(metrics), "lclgrid_syntheses_total"); got != 0 {
		t.Errorf("explain started %v syntheses, want 0", got)
	}

	resp, body = getBody(t, base+"/v1/problems")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("problems: status %d", resp.StatusCode)
	}
	var catalogue struct {
		Problems []struct {
			Key      string `json:"key"`
			Class    string `json:"class"`
			Strategy string `json:"strategy"`
		} `json:"problems"`
		Families []string `json:"families"`
	}
	if err := json.Unmarshal(body, &catalogue); err != nil {
		t.Fatalf("problems response does not decode: %v\n%s", err, body)
	}
	if want := len(eng.Registry().Keys()); len(catalogue.Problems) != want {
		t.Errorf("catalogue has %d problems, want %d", len(catalogue.Problems), want)
	}
	byKey := map[string]string{}
	for _, p := range catalogue.Problems {
		if p.Strategy == "" {
			t.Errorf("problem %s has no strategy hint", p.Key)
		}
		byKey[p.Key] = p.Class
	}
	if byKey["4col"] != "logstar" || byKey["3col"] != "global" {
		t.Errorf("catalogue classes wrong: %v", byKey)
	}
	if len(catalogue.Families) == 0 {
		t.Error("catalogue lists no families")
	}
}

// BenchmarkServerSolveCached measures the full HTTP round trip of a
// cache-warm solve through the in-process handler (no network).
func BenchmarkServerSolveCached(b *testing.B) {
	srv := NewServer(NewEngine())
	body := []byte(`{"key":"5col","n":12}`)
	// Warm the synthesis cache once.
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

// TestServerLabelsETagRoundTrip serves a label window over HTTP,
// asserts the response matches the engine exactly and carries the
// caching headers, then revalidates with If-None-Match and checks the
// 304 short-circuits before any evaluation.
func TestServerLabelsETagRoundTrip(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng)
	base, _ := startServer(t, srv)

	doc := `{"key":"mis","sides":[100000,100000],"seed":7,"x":99998,"y":42000,"w":6,"h":4}`
	resp, got := postJSON(t, base+"/v1/labels", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != labelCacheControl {
		t.Errorf("Cache-Control = %q, want %q", cc, labelCacheControl)
	}
	var req LabelRequest
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	want, err := eng.LabelWindow(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want.CacheHit = false // the HTTP call was the cold one; this call found it warm
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), wantJSON) {
		t.Errorf("served labels differ from engine:\nserver: %s\nengine: %s", got, wantJSON)
	}

	// Revalidation: same document, If-None-Match → 304 with no body,
	// and no new evaluation (the engine's counters stay put).
	misses := eng.CacheStats().Misses
	r, err := http.NewRequest(http.MethodPost, base+"/v1/labels", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d: %s", resp2.StatusCode, body)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %s", body)
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("304 ETag = %q, want %q", resp2.Header.Get("ETag"), etag)
	}
	if got := eng.CacheStats().Misses; got != misses {
		t.Errorf("revalidation synthesized: misses %d -> %d", misses, got)
	}

	// A different window gets a different validator.
	resp3, _ := postJSON(t, base+"/v1/labels", `{"key":"mis","sides":[100000,100000],"seed":7,"x":0,"y":0,"w":6,"h":4}`)
	if other := resp3.Header.Get("ETag"); other == "" || other == etag {
		t.Errorf("distinct windows share ETag %q", other)
	}
}

// TestServerProblemsETag checks the catalogue endpoint's validator:
// stable across requests, honoured by If-None-Match.
func TestServerProblemsETag(t *testing.T) {
	srv := NewServer(NewEngine())
	base, _ := startServer(t, srv)

	resp, err := http.Get(base + "/v1/problems")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("catalogue response has no ETag")
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age") {
		t.Errorf("Cache-Control = %q", cc)
	}
	r, err := http.NewRequest(http.MethodGet, base+"/v1/problems", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d: %s", resp2.StatusCode, body)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body: %s", body)
	}
}

// TestServerExportJSONL streams a small grid export and checks the
// framing: one band line per band, in row order, then a terminal done
// line with the totals, and labels matching the engine's solve.
func TestServerExportJSONL(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng)
	base, _ := startServer(t, srv)

	const side = 13
	want, err := eng.Solve(context.Background(), SolveRequest{
		Key: "mis", N: side, IDs: AffineIDs(side*side, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/export", "application/json",
		strings.NewReader(`{"key":"mis","n":13,"seed":3,"band_rows":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	labels := make([]int, side*side)
	nextY, bands, done := 0, 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line exportLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Done:
			done = true
			if line.Bands != bands || line.Nodes != side*side {
				t.Errorf("done line reports %d bands / %d nodes, want %d / %d",
					line.Bands, line.Nodes, bands, side*side)
			}
		case line.Band != nil:
			if done {
				t.Fatal("band after the done line")
			}
			if line.Band.Y != nextY {
				t.Errorf("band at row %d, want %d", line.Band.Y, nextY)
			}
			copy(labels[line.Band.Y*side:], line.Band.Labels)
			nextY += line.Band.Rows
			bands++
		default:
			t.Fatalf("unrecognised line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done || nextY != side {
		t.Fatalf("done=%v, rows covered %d/%d", done, nextY, side)
	}
	for v := range labels {
		if labels[v] != want.Labels[v] {
			t.Fatalf("node %d: export %d, solve %d", v, labels[v], want.Labels[v])
		}
	}
}

// TestServerExportInt32 checks the raw binary framing: exactly
// nx*ny*4 little-endian bytes, row-major, equal to the engine's labels.
func TestServerExportInt32(t *testing.T) {
	eng := NewEngine()
	srv := NewServer(eng)
	base, _ := startServer(t, srv)

	const side = 12
	want, err := eng.Solve(context.Background(), SolveRequest{
		Key: "mis", N: side, IDs: AffineIDs(side*side, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/export", "application/json",
		strings.NewReader(`{"key":"mis","n":12,"format":"int32"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	if len(data) != side*side*4 {
		t.Fatalf("body is %d bytes, want %d", len(data), side*side*4)
	}
	for v := range want.Labels {
		got := int(int32(binary.LittleEndian.Uint32(data[v*4:])))
		if got != want.Labels[v] {
			t.Fatalf("node %d: export %d, solve %d", v, got, want.Labels[v])
		}
	}
}

// TestServerLabelsRejectsBadRequests checks the 400 path of the new
// endpoints: malformed documents, validation failures and
// client-attributable planning failures all map to 400.
func TestServerLabelsRejectsBadRequests(t *testing.T) {
	srv := NewServer(NewEngine())
	base, _ := startServer(t, srv)

	for _, tc := range []struct{ url, body string }{
		{"/v1/labels", `{"key":`},
		{"/v1/labels", `{"key":"mis","w":0,"h":1}`},
		{"/v1/labels", `{"key":"nope","w":1,"h":1}`},
		{"/v1/labels", `{"key":"is","w":1,"h":1}`},
		{"/v1/labels", `{"key":"mis","n":2000000,"w":1,"h":1}`},
		{"/v1/labels", `{"key":"mis","n":16,"mode":"lattice","w":1,"h":1}`},
		{"/v1/export", `{"key":"mis","format":"yaml"}`},
		{"/v1/export", `{"key":"mis","band_rows":-1}`},
	} {
		resp, body := postJSON(t, base+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d (%s), want 400", tc.url, tc.body, resp.StatusCode, body)
		}
	}
}

// TestServerLabelMetrics checks the windowed-labeling series reach the
// exposition when engine and server share a metrics observer.
func TestServerLabelMetrics(t *testing.T) {
	m := NewMetricsObserver()
	eng := NewEngine(WithObserver(m))
	srv := NewServer(eng, WithMetricsObserver(m))
	base, _ := startServer(t, srv)

	if resp, body := postJSON(t, base+"/v1/labels", `{"key":"mis","n":16,"w":3,"h":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: status %d: %s", resp.StatusCode, body)
	}
	// A request that passes wire validation but fails planning reaches
	// the engine, so the error shows up in the label series.
	resp, metrics := postJSON(t, base+"/v1/labels", `{"key":"nope","w":1,"h":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad labels: status %d: %s", resp.StatusCode, metrics)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"lclgrid_label_requests_total 2",
		"lclgrid_label_request_errors_total 1",
		"lclgrid_label_window_nodes_total 9",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
