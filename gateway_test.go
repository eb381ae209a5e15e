package lclgrid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// startGateway boots gw on an ephemeral port (Serve path: real drain,
// real health prober) and returns its base URL.
func startGateway(t *testing.T, gw *Gateway) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
	})
	return "http://" + l.Addr().String()
}

// normalizeBatchLine strips the wall clock from one JSONL line and
// re-marshals it canonically so gateway and single-server output can be
// compared for identical content.
func normalizeBatchLine(t *testing.T, line []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("bad batch line %s: %v", line, err)
	}
	if res, ok := m["result"].(map[string]any); ok {
		delete(res, "elapsed_ns")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func batchLines(t *testing.T, base, body, query string) []string {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch"+query, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("batch POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, string(append([]byte(nil), sc.Bytes()...)))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("batch stream: %v", err)
	}
	return lines
}

// TestBatchAnswersEveryLine posts JSONL bodies well past the HTTP/1
// server's read buffer to serve and to a two-shard gateway: every line
// must come back answered, with no terminal error. A batch handler
// streams results while it still reads the body, which only works with
// full-duplex HTTP/1 (otherwise the first flushed response bytes close
// the unread body, cutting a large batch off after a few hundred lines).
func TestBatchAnswersEveryLine(t *testing.T) {
	serveBase, _ := startServer(t, NewServer(NewEngine()))
	shardA, _ := startServer(t, NewServer(NewEngine()))
	shardB, _ := startServer(t, NewServer(NewEngine()))
	gw, err := NewGateway([]string{shardA, shardB})
	if err != nil {
		t.Fatal(err)
	}
	gwBase := startGateway(t, gw)

	for _, target := range []struct{ name, base string }{{"serve", serveBase}, {"gateway", gwBase}} {
		for _, lines := range []int{1, 100, 400, 10_000} {
			t.Run(fmt.Sprintf("%s/%d", target.name, lines), func(t *testing.T) {
				var body strings.Builder
				for i := 0; i < lines; i++ {
					if i%2 == 0 {
						body.WriteString(`{"key":"is","n":4}` + "\n")
					} else {
						body.WriteString(`{"key":"orient2","n":4}` + "\n")
					}
				}
				got := batchLines(t, target.base, body.String(), "")
				seen := make([]bool, lines)
				for n, raw := range got {
					var line struct {
						Index  *int            `json:"index"`
						Result json.RawMessage `json:"result"`
						Error  string          `json:"error"`
					}
					if err := json.Unmarshal([]byte(raw), &line); err != nil {
						t.Fatalf("bad line %s: %v", raw, err)
					}
					if line.Index == nil || line.Error != "" || len(line.Result) == 0 {
						t.Fatalf("unanswered or failed line after %d answers: %s", n, raw)
					}
					if *line.Index < 0 || *line.Index >= lines || seen[*line.Index] {
						t.Fatalf("bad or repeated index %d", *line.Index)
					}
					seen[*line.Index] = true
				}
				if len(got) != lines {
					t.Fatalf("%d lines answered, want %d", len(got), lines)
				}
			})
		}
	}
}

// TestGatewayBatchMatchesSingleServer is the fan-out fidelity check: a
// two-shard gateway batch must produce the same JSONL content as one
// server solving the whole document — the same set of lines in
// completion mode, the identical sequence with ?ordered=1 (modulo
// elapsed_ns in both cases).
func TestGatewayBatchMatchesSingleServer(t *testing.T) {
	// The reference: one server over one engine.
	single := NewServer(NewEngine())
	singleBase, _ := startServer(t, single)

	// The fleet: two independent shards (separate engines — no shared
	// cache needed for fidelity) behind a gateway.
	shardA, _ := startServer(t, NewServer(NewEngine()))
	shardB, _ := startServer(t, NewServer(NewEngine()))
	gw, err := NewGateway([]string{shardA, shardB})
	if err != nil {
		t.Fatal(err)
	}
	gwBase := startGateway(t, gw)

	doc := `{"key":"5col","n":8}
{"key":"mis","n":8}
{"key":"orient134","n":6}
{"key":"5col","n":10}
{"key":"is","n":8}
`
	want := batchLines(t, singleBase, doc, "?ordered=1")

	// Ordered mode: the gateway stream is line-for-line identical.
	got := batchLines(t, gwBase, doc, "?ordered=1")
	if len(got) != len(want) {
		t.Fatalf("gateway returned %d lines, single server %d", len(got), len(want))
	}
	for i := range want {
		w, g := normalizeBatchLine(t, []byte(want[i])), normalizeBatchLine(t, []byte(got[i]))
		if w != g {
			t.Errorf("ordered line %d differs:\nsingle:  %s\ngateway: %s", i, w, g)
		}
	}

	// Completion mode: same content, order free.
	gotC := batchLines(t, gwBase, doc, "")
	if len(gotC) != len(want) {
		t.Fatalf("completion mode returned %d lines, want %d", len(gotC), len(want))
	}
	var wantN, gotN []string
	for i := range want {
		wantN = append(wantN, normalizeBatchLine(t, []byte(want[i])))
		gotN = append(gotN, normalizeBatchLine(t, []byte(gotC[i])))
	}
	sort.Strings(wantN)
	sort.Strings(gotN)
	for i := range wantN {
		if wantN[i] != gotN[i] {
			t.Errorf("completion content differs at %d:\nsingle:  %s\ngateway: %s", i, wantN[i], gotN[i])
		}
	}

	// Every shard the ring routes a document key to actually served
	// traffic. (The split itself depends on the ephemeral shard
	// addresses hashed onto the ring, so the expectation is computed
	// with the gateway's own routing, not assumed to cover all shards.)
	expected := make(map[string]bool)
	for _, key := range []string{"5col", "mis", "orient134", "is"} {
		expected[gw.ring.Sequence(gw.routingKey(key))[0]] = true
	}
	var sb strings.Builder
	gw.Metrics().WritePrometheus(&sb)
	for shard := range expected {
		if !strings.Contains(sb.String(), fmt.Sprintf("shard=%q", shard)) {
			t.Errorf("shard %s served no requests:\n%s", shard, grepMetrics(sb.String(), "gateway"))
		}
	}
}

// TestGatewaySolveMatchesSingleServer: a routed solve through the
// gateway returns the same Result bytes as the shard would (the relay
// never re-marshals), and repeated requests for one key land on one
// shard.
func TestGatewaySolveMatchesSingleServer(t *testing.T) {
	shardA, _ := startServer(t, NewServer(NewEngine()))
	shardB, _ := startServer(t, NewServer(NewEngine()))
	gw, err := NewGateway([]string{shardA, shardB})
	if err != nil {
		t.Fatal(err)
	}
	gwBase := startGateway(t, gw)

	body := `{"key":"5col","n":12}`
	owner := gw.pickShard("5col")
	// Warm the owner first so the direct and routed responses are both
	// cache hits — the comparison is about routing fidelity, not about
	// which request paid the synthesis.
	if resp, warm := postJSON(t, owner+"/v1/solve", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming solve: %d %s", resp.StatusCode, warm)
	}
	resp, direct := postJSON(t, owner+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct solve: %d %s", resp.StatusCode, direct)
	}
	resp, routed := postJSON(t, gwBase+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed solve: %d %s", resp.StatusCode, routed)
	}
	if !bytes.Equal(normalizeResult(t, direct), normalizeResult(t, routed)) {
		t.Errorf("routed result differs:\ndirect: %s\nrouted: %s", direct, routed)
	}
}

// TestGatewayRetriesNextReplica: a key whose ring owner is unreachable
// is served by the next replica in the key's sequence, the dead shard
// is marked unhealthy, and the retry is counted.
func TestGatewayRetriesNextReplica(t *testing.T) {
	live, _ := startServer(t, NewServer(NewEngine()))

	// A dead shard: reserve an address, then close the listener.
	deadL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + deadL.Addr().String()
	deadL.Close()

	gw, err := NewGateway([]string{dead, live})
	if err != nil {
		t.Fatal(err)
	}
	// Mount the handler directly — no Serve, no background prober: the
	// dead shard must still be unknown so the first attempt really hits
	// it (a known-dead shard is skipped, which is not a retry).
	ts := httptest.NewServer(gw)
	defer ts.Close()
	gwBase := ts.URL

	// Find a registry key the dead shard owns, so the first attempt
	// fails over. (With two shards roughly half the catalogue will do.)
	key := ""
	for _, k := range DefaultRegistry().Keys() {
		if gw.ring.Owner(gw.routingKey(k)) == dead {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no catalogue key maps to the dead shard on this ring")
	}

	resp, body := postJSON(t, gwBase+"/v1/solve", fmt.Sprintf(`{"key":%q,"n":8}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover solve: %d %s", resp.StatusCode, body)
	}
	var sb strings.Builder
	gw.Metrics().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "lclgrid_gateway_retries_total 1") {
		t.Errorf("failover not counted as a retry:\n%s", grepMetrics(sb.String(), "gateway"))
	}
	if gw.shardHealthy(dead) {
		t.Error("dead shard still marked healthy after a failed attempt")
	}

	// Later requests skip the known-dead shard without another retry.
	resp, _ = postJSON(t, gwBase+"/v1/solve", fmt.Sprintf(`{"key":%q,"n":8}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve: %d", resp.StatusCode)
	}
}

// TestGatewayShardLossMidBatch: a shard dying mid-stream fails exactly
// its unanswered lines — each as an in-band {"index","key","error"}
// line — while already-answered lines survive untouched.
func TestGatewayShardLossMidBatch(t *testing.T) {
	// A fake shard that answers the first batch line and then drops the
	// connection (the abrupt close of a crashing replica).
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case "/v1/batch":
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write([]byte(`{"index":0,"key":"5col","result":{"problem":"5col","status":"ok"}}` + "\n"))
			http.NewResponseController(w).Flush()
			panic(http.ErrAbortHandler)
		default:
			http.NotFound(w, r)
		}
	}))
	defer fake.Close()

	gw, err := NewGateway([]string{fake.URL})
	if err != nil {
		t.Fatal(err)
	}
	gwBase := startGateway(t, gw)

	doc := `{"key":"5col","n":8}
{"key":"mis","n":8}
{"key":"is","n":8}
`
	lines := batchLines(t, gwBase, doc, "")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (one answer, two in-band errors):\n%s", len(lines), strings.Join(lines, "\n"))
	}
	byIndex := make(map[int]gwLine, 3)
	for _, l := range lines {
		var line gwLine
		if err := json.Unmarshal([]byte(l), &line); err != nil || line.Index == nil {
			t.Fatalf("unframed line %q: %v", l, err)
		}
		byIndex[*line.Index] = line
	}
	if line := byIndex[0]; line.Error != "" || len(line.Result) == 0 {
		t.Errorf("answered line 0 was disturbed: %+v", line)
	}
	for _, i := range []int{1, 2} {
		line, ok := byIndex[i]
		if !ok {
			t.Fatalf("line %d missing", i)
		}
		if !strings.Contains(line.Error, "failed mid-batch") {
			t.Errorf("line %d: error %q does not name the mid-batch failure", i, line.Error)
		}
		if line.Key == "" {
			t.Errorf("line %d error lost its echo key", i)
		}
	}
}

// TestGatewayReadiness: the gateway reports unready until a shard
// probes healthy, and recovers when one appears.
func TestGatewayReadiness(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "warming", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	gw, err := NewGateway([]string{down.URL}, WithGatewayProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Before any probe: unready (nothing is known-healthy).
	if err := gw.Ready(); err == nil {
		t.Fatal("gateway ready before any probe")
	}
	gw.ProbeShards(context.Background())
	if err := gw.Ready(); err == nil {
		t.Fatal("gateway ready with every shard unhealthy")
	}

	// /readyz wires Ready to 503, /healthz stays 200 (liveness).
	ts := httptest.NewServer(gw)
	defer ts.Close()
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no healthy shard: %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// A healthy shard flips readiness on the next probe.
	live, _ := startServer(t, NewServer(NewEngine()))
	gw2, err := NewGateway([]string{down.URL, live}, WithGatewayProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	gw2.ProbeShards(context.Background())
	if err := gw2.Ready(); err != nil {
		t.Fatalf("gateway unready with a healthy shard: %v", err)
	}
}

// TestServerReadyzSplit: /healthz (liveness) answers 200 throughout,
// /readyz mirrors the WithReadyCheck hook — 503 while warming, 200
// after — and defaults to ready when no hook is installed.
func TestServerReadyzSplit(t *testing.T) {
	eng := NewEngine()
	plain := httptest.NewServer(NewServer(eng))
	defer plain.Close()
	if resp, _ := getBody(t, plain.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with no hook: %d", resp.StatusCode)
	}

	warming := true
	srv := NewServer(eng, WithReadyCheck(func() error {
		if warming {
			return fmt.Errorf("warm-on-boot in progress")
		}
		return nil
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while warming: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "warm-on-boot") {
		t.Errorf("readyz body does not carry the reason: %s", body)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while warming: %d", resp.StatusCode)
	}

	warming = false
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after warm: %d", resp.StatusCode)
	}
}

// BenchmarkGatewayBatch measures a six-line batch fanned across two
// warm shards and merged in order — the gateway's full fan-out path
// over real HTTP shard connections.
func BenchmarkGatewayBatch(b *testing.B) {
	newShard := func() *httptest.Server {
		return httptest.NewServer(NewServer(NewEngine()))
	}
	shardA, shardB := newShard(), newShard()
	defer shardA.Close()
	defer shardB.Close()
	gw, err := NewGateway([]string{shardA.URL, shardB.URL})
	if err != nil {
		b.Fatal(err)
	}
	doc := []byte(`{"key":"5col","n":8}
{"key":"mis","n":8}
{"key":"orient134","n":6}
{"key":"5col","n":10}
{"key":"is","n":8}
{"key":"mis","n":10}
`)
	run := func() int {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch?ordered=1", bytes.NewReader(doc))
		w := httptest.NewRecorder()
		gw.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return bytes.Count(w.Body.Bytes(), []byte("\n"))
	}
	if lines := run(); lines != 6 { // warm both shards
		b.Fatalf("warm batch returned %d lines", lines)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lines := run(); lines != 6 {
			b.Fatalf("batch returned %d lines", lines)
		}
	}
}
