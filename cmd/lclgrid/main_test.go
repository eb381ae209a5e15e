package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	lclgrid "lclgrid"
)

var bg = context.Background()

// TestLookup exercises the registry resolution the CLI relies on,
// including the parameterised families the old name switch supported.
func TestLookup(t *testing.T) {
	tests := []struct {
		name   string
		labels int
		ok     bool
	}{
		{"4col", 4, true},
		{"3col", 3, true},
		{"5edgecol", 120, true},
		{"mis", 16, true},
		{"matching", 5, true},
		{"is", 2, true},
		{"orient134", 9, true}, // C(4,1)+C(4,3)+C(4,4) labels
		{"orient2", 6, true},   // C(4,2) labels
		{"lm:halt", 0, true},   // no SFT alphabet
		{"nope", 0, false},
		{"orient9", 0, false},
	}
	for _, tt := range tests {
		spec, err := lookup(tt.name)
		if tt.ok != (err == nil) {
			t.Errorf("%s: err = %v, ok want %v", tt.name, err, tt.ok)
			continue
		}
		if err == nil && spec.NumLabels != tt.labels {
			t.Errorf("%s: NumLabels = %d, want %d", tt.name, spec.NumLabels, tt.labels)
		}
	}
}

// TestUnknownKeyEnumerates checks the discoverability requirement: an
// unknown problem error must name the valid keys.
func TestUnknownKeyEnumerates(t *testing.T) {
	_, err := lookup("nope")
	if err == nil {
		t.Fatal("lookup of unknown key succeeded")
	}
	for _, want := range []string{"4col", "mis", "5edgecol", "lm:halt", "<k>col"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-key error does not mention %q: %v", want, err)
		}
	}
}

func TestCmdList(t *testing.T) {
	var out bytes.Buffer
	if err := cmdList(nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"KEY", "4col", "Θ(log* n)", "lm:halt", "families:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "STRATEGY") {
		t.Error("bare list must not print the STRATEGY column")
	}
}

// TestCmdListVerbose: -v adds the plan-hint column, so the registered
// class, minimum side and attempt shapes cross-check `lclgrid explain`.
func TestCmdListVerbose(t *testing.T) {
	var out bytes.Buffer
	if err := cmdList([]string{"-v"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"STRATEGY",
		"synthesis k=3 7×5 (side ≥ 28)", // 4col
		"k=1 3×3 (side ≥ 12) | k=2 5×5 (side ≥ 20)", // orientation race
		"constant fill",                     // is / orient2
		"Θ(n) brute force",                  // 3col
		"direct: §10 direct edge colouring", // 5edgecol
		"direct: §6 L_M construction",       // lm:halt
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list -v output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCmdExplain: the explain subcommand prints the ranked plan as JSON
// without solving — and, by construction, without a SAT call (the
// process-wide engine's cache counters stay untouched).
func TestCmdExplain(t *testing.T) {
	before := engine.CacheStats().Misses
	var out bytes.Buffer
	if err := cmdExplain([]string{`{"key":"4col","n":8}`}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	var plan lclgrid.Plan
	if err := json.Unmarshal(out.Bytes(), &plan); err != nil {
		t.Fatalf("explain output is not a JSON plan: %v\n%s", err, out.String())
	}
	if plan.Key != "4col" || len(plan.Strategies) != 2 {
		t.Fatalf("plan = %+v, want 4col with synthesis+baseline stages", plan)
	}
	if plan.Strategies[0].Kind != lclgrid.StrategySynthesis || plan.Strategies[0].Skip == "" {
		t.Errorf("first stage = %+v, want synthesis skipped (8 < MinTorusSide 28)", plan.Strategies[0])
	}
	if plan.Strategies[1].Kind != lclgrid.StrategyBaseline || !plan.Strategies[1].Fallback {
		t.Errorf("second stage = %+v, want the fallback baseline", plan.Strategies[1])
	}
	if got := engine.CacheStats().Misses; got != before {
		t.Errorf("explain performed %d SAT syntheses, want 0", got-before)
	}
	// The request document also arrives over stdin.
	out.Reset()
	if err := cmdExplain([]string{"-compact"}, strings.NewReader(`{"key":"is","n":4}`), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"constant-fill"`) {
		t.Errorf("stdin explain output missing the constant stage: %s", out.String())
	}
	if err := cmdExplain(nil, strings.NewReader(""), &out); err == nil {
		t.Error("explain with no request document must fail")
	}
}

// TestCmdBatchExplain: `batch -explain` turns request lines into plan
// lines without solving anything.
func TestCmdBatchExplain(t *testing.T) {
	in := strings.NewReader(`{"key":"orient134","n":20}` + "\n" + `{"key":"nope"}` + "\n")
	var out bytes.Buffer
	if err := cmdBatch(bg, []string{"-explain"}, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := decodeBatchLines(t, out.Bytes())
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out.String())
	}
	if lines[0].Plan == nil || lines[0].Result != nil {
		t.Fatalf("line 0 = %+v, want a plan and no result", lines[0])
	}
	if got := len(lines[0].Plan.Strategies); got != 2 {
		t.Errorf("orient134 plan has %d stages, want synthesis+baseline", got)
	}
	if atts := lines[0].Plan.Strategies[0].Attempts; len(atts) != 2 || atts[0].MinSide != 12 || atts[1].MinSide != 20 {
		t.Errorf("orient134 synthesis attempts = %+v, want k=1 (min 12) and k=2 (min 20)", atts)
	}
	if lines[1].Error == "" {
		t.Error("unknown key must produce an error line in explain mode")
	}
}

func TestCmdTable(t *testing.T) {
	if err := cmdTable(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdClassify(t *testing.T) {
	if err := cmdClassify(bg, []string{"-problem", "is", "-maxk", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSynth(t *testing.T) {
	if err := cmdSynth(bg, []string{"-problem", "5col", "-k", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSynth(bg, []string{"-problem", "3col", "-k", "1"}); err == nil {
		t.Error("3-colouring synthesis at k=1 should fail")
	}
}

func TestCmdRun(t *testing.T) {
	// Registry solver path.
	if err := cmdRun(bg, []string{"-problem", "5col", "-n", "16"}); err != nil {
		t.Fatal(err)
	}
	// Forced synthesis path.
	if err := cmdRun(bg, []string{"-problem", "5col", "-k", "1", "-n", "16"}); err != nil {
		t.Fatal(err)
	}
	// Default side from the spec.
	if err := cmdRun(bg, []string{"-problem", "mis"}); err != nil {
		t.Fatal(err)
	}
}

// decodeBatchLines parses cmdBatch's JSONL output.
func decodeBatchLines(t *testing.T, out []byte) []batchLine {
	t.Helper()
	var lines []batchLine
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("output line %d is not JSON: %v\n%s", len(lines), err, sc.Text())
		}
		lines = append(lines, line)
	}
	return lines
}

// TestCmdBatch is the JSONL serving contract: one request line in, one
// JSON result line out.
func TestCmdBatch(t *testing.T) {
	in := strings.NewReader(`{"key":"4col","n":16}` + "\n")
	var out bytes.Buffer
	if err := cmdBatch(bg, nil, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := decodeBatchLines(t, out.Bytes())
	if len(lines) != 1 {
		t.Fatalf("got %d output lines, want exactly 1:\n%s", len(lines), out.String())
	}
	line := lines[0]
	if line.Error != "" || line.Result == nil {
		t.Fatalf("request failed: %+v", line)
	}
	if line.Index != 0 || line.Key != "4col" {
		t.Errorf("line does not echo the request: %+v", line)
	}
	if line.Result.Verification != lclgrid.Verified {
		t.Errorf("result not verified: %v", line.Result)
	}
	if len(line.Result.Labels) != 16*16 {
		t.Errorf("result carries %d labels, want 256", len(line.Result.Labels))
	}
}

// TestCmdBatchMixed streams several requests, including failures, and
// checks -ordered output order, per-request errors and the
// -labels=false stripping.
func TestCmdBatchMixed(t *testing.T) {
	reqs := []string{
		`{"key":"5col","n":16,"seed":1}`,
		`{"key":"nope"}`,
		`{"key":"2col","n":5}`,
		`{"key":"5col","n":16,"seed":2}`,
	}
	in := strings.NewReader(strings.Join(reqs, "\n") + "\n")
	var out bytes.Buffer
	if err := cmdBatch(bg, []string{"-labels=false", "-workers", "2", "-ordered"}, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := decodeBatchLines(t, out.Bytes())
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		if line.Index != i {
			t.Errorf("line %d has index %d; -ordered output must preserve input order", i, line.Index)
		}
	}
	if lines[0].Error != "" || lines[3].Error != "" {
		t.Errorf("good requests failed: %+v / %+v", lines[0], lines[3])
	}
	if lines[1].Error == "" || lines[2].Error == "" {
		t.Errorf("bad requests succeeded: %+v / %+v", lines[1], lines[2])
	}
	if len(lines[0].Result.Labels) != 0 {
		t.Errorf("-labels=false left %d labels in the result", len(lines[0].Result.Labels))
	}
}

// TestCmdBatchUnordered: the default (streaming) output carries every
// request exactly once — indexes form a permutation and each line
// echoes its own request's key — even when completion order differs
// from input order.
func TestCmdBatchUnordered(t *testing.T) {
	reqs := []string{
		`{"key":"5col","n":16,"seed":1}`,
		`{"key":"is","n":4}`,
		`{"key":"mis","n":12}`,
		`{"key":"5col","n":16,"seed":2}`,
		`{"key":"nope"}`,
	}
	wantKeys := []string{"5col", "is", "mis", "5col", "nope"}
	in := strings.NewReader(strings.Join(reqs, "\n") + "\n")
	var out bytes.Buffer
	if err := cmdBatch(bg, []string{"-workers", "4"}, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := decodeBatchLines(t, out.Bytes())
	if len(lines) != len(reqs) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(reqs), out.String())
	}
	seen := make(map[int]batchLine)
	for _, line := range lines {
		if _, dup := seen[line.Index]; dup {
			t.Fatalf("index %d emitted twice", line.Index)
		}
		seen[line.Index] = line
	}
	for i, want := range wantKeys {
		line, ok := seen[i]
		if !ok {
			t.Fatalf("no output line for request %d", i)
		}
		if line.Key != want {
			t.Errorf("line for request %d echoes key %q, want %q", i, line.Key, want)
		}
	}
	if seen[4].Error == "" {
		t.Error("unknown-key request did not produce an error line")
	}
}

// TestCmdBatchCacheDir: a second batch invocation over the same
// -cache-dir is served from disk (the result records the cache hit and
// the engine is a fresh process-equivalent instance).
func TestCmdBatchCacheDir(t *testing.T) {
	dir := t.TempDir()
	run := func() []batchLine {
		in := strings.NewReader(`{"key":"5col","n":16}` + "\n")
		var out bytes.Buffer
		if err := cmdBatch(bg, []string{"-cache-dir", dir}, in, &out); err != nil {
			t.Fatal(err)
		}
		return decodeBatchLines(t, out.Bytes())
	}
	first := run()
	if len(first) != 1 || first[0].Error != "" {
		t.Fatalf("first run: %+v", first)
	}
	if first[0].Result.CacheHit {
		t.Error("first run claims a cache hit on an empty cache directory")
	}
	second := run()
	if len(second) != 1 || second[0].Error != "" {
		t.Fatalf("second run: %+v", second)
	}
	if !second[0].Result.CacheHit {
		t.Error("second run with the same -cache-dir did not hit the disk cache")
	}
}

// TestCmdWarm: warming a cache directory makes a rerun perform zero
// syntheses — the CLI face of the disk round-trip contract.
func TestCmdWarm(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := cmdWarm(bg, []string{"-problems", "5col,mis,is", "-cache-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	first := out.String()
	if !strings.Contains(first, "2 warmed") || !strings.Contains(first, "1 skipped") {
		t.Errorf("first warm output: %q, want 2 warmed (5col, mis) and 1 skipped (is)", first)
	}
	if strings.Contains(first, " 0 syntheses") {
		t.Errorf("first warm performed no syntheses: %q", first)
	}
	out.Reset()
	if err := cmdWarm(bg, []string{"-problems", "5col,mis,is", "-cache-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	second := out.String()
	if !strings.Contains(second, "0 syntheses performed") {
		t.Errorf("re-warm over a warm directory synthesized again: %q", second)
	}
	if err := cmdWarm(bg, []string{"-problems", "nope"}, &out); err == nil {
		t.Error("warming an unknown key must fail")
	}
}

// TestCmdBatchBadJSON: a malformed line fails the command after the
// preceding complete requests were served.
func TestCmdBatchBadJSON(t *testing.T) {
	in := strings.NewReader(`{"key":"5col","n":16}` + "\n" + `{not json}` + "\n")
	var out bytes.Buffer
	if err := cmdBatch(bg, nil, in, &out); err == nil {
		t.Fatal("malformed JSONL must fail the command")
	}
}

// TestCmdBatchCancelledEmitsConsumedLines: every request the command
// consumes produces exactly one output line even when the context is
// already dead, and the cancellation surfaces as a non-zero exit.
func TestCmdBatchCancelledEmitsConsumedLines(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	in := strings.NewReader(
		`{"key":"5col","n":16}` + "\n" + `{"key":"mis","n":12}` + "\n" + `{"key":"is","n":4}` + "\n")
	var out bytes.Buffer
	err := cmdBatch(ctx, nil, in, &out)
	if err == nil {
		t.Fatal("cancelled batch with unserved input must fail the command")
	}
	lines := decodeBatchLines(t, out.Bytes())
	for i, line := range lines {
		if line.Index != i {
			t.Errorf("line %d has index %d", i, line.Index)
		}
		if line.Error == "" {
			t.Errorf("line %d: want a context error, got %+v", i, line)
		}
	}
	// Which select branch wins the race with a dead context is not
	// deterministic, so the command may stop consuming at any point —
	// but it must never consume a request without emitting its line,
	// and it performed zero syntheses either way.
	if len(lines) > 3 {
		t.Errorf("got %d lines for 3 requests", len(lines))
	}
}

// TestCmdBatchVerboseEventLog pins the -v event log: `batch -v -log
// json` over one cold and one warm solve writes one JSON line per engine
// event, in engine order, naming the synthesis key on cache and
// synthesis events and the strategy kind on strategy events. The test
// re-executes its own binary as `lclgrid batch` so stderr is the real
// logger's.
func TestCmdBatchVerboseEventLog(t *testing.T) {
	if os.Getenv("LCLGRID_TEST_BATCH_LOG") == "1" {
		os.Args = []string{"lclgrid", "batch", "-v", "-log", "json", "-workers", "1", "-labels=false"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCmdBatchVerboseEventLog$")
	cmd.Env = append(os.Environ(), "LCLGRID_TEST_BATCH_LOG=1")
	cmd.Stdin = strings.NewReader(`{"key":"5col","n":16}` + "\n" + `{"key":"5col","n":16,"seed":2}` + "\n")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("batch -v: %v\n%s", err, stderr.String())
	}
	key := lclgrid.SynthKey{Fingerprint: lclgrid.VertexColoring(5, 2).Fingerprint(), K: 1, H: 3, W: 2}.String()
	want := []string{
		"request start",
		"plan built",
		"strategy start kind=synthesis",
		"cache miss key=" + key,
		"synthesis start key=" + key,
		"synthesis end key=" + key,
		"strategy end kind=synthesis",
		"request end",
		"request start",
		"plan built",
		"strategy start kind=cached-table",
		"cache hit key=" + key,
		"strategy end kind=cached-table",
		"request end",
	}
	var got []string
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		var rec struct {
			Msg  string `json:"msg"`
			Key  string `json:"key"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, sc.Text())
		}
		line := rec.Msg
		if rec.Key != "" {
			line += " key=" + rec.Key
		}
		if rec.Kind != "" {
			line += " kind=" + rec.Kind
		}
		got = append(got, line)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("event log:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
