package lclgrid_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	lclgrid "lclgrid"
)

// renamedDef restates a catalogue problem as a DSL definition with every
// label renamed: the same constraint system under a new fingerprint, so
// it has its own cache entries and its own oracle classification.
func renamedDef(t testing.TB, key, prefix string) *lclgrid.ProblemDef {
	t.Helper()
	spec, err := lclgrid.DefaultRegistry().Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	def := lclgrid.NewProblemDef(spec.Problem())
	rename := func(l string) string { return prefix + l }
	out := &lclgrid.ProblemDef{Name: prefix + " " + key, Dims: def.Dims}
	for _, l := range def.Labels {
		out.Labels = append(out.Labels, rename(l))
	}
	for _, pairs := range def.Allow {
		var renamed []lclgrid.LabelPair
		for _, p := range pairs {
			renamed = append(renamed, lclgrid.LabelPair{A: rename(p.A), B: rename(p.B)})
		}
		out.Allow = append(out.Allow, renamed)
	}
	for _, l := range def.NodeOK {
		out.NodeOK = append(out.NodeOK, rename(l))
	}
	return out
}

// servePass sends one pass of the determinism workload through srv —
// every label window, then every solve, then all solves again as one
// ordered /v1/batch body — and renders the responses as one document:
// status, ETag and body per request, with elapsed_ns dropped. exact
// keeps cache_hit; loose drops it too.
func servePass(t *testing.T, srv *lclgrid.Server, labels, solves []string) (exact, loose string) {
	t.Helper()
	var out [2]strings.Builder
	do := func(path, body string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
		for i := range out {
			fmt.Fprintf(&out[i], "%s %s -> %d etag=%s\n", path, body, rec.Code, rec.Header().Get("ETag"))
		}
		for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
			for i := range out {
				var doc any
				if err := json.Unmarshal(line, &doc); err != nil {
					t.Fatalf("POST %s: response line does not decode: %v\n%s", path, err, line)
				}
				stripRunFields(doc, i == 1)
				norm, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				out[i].Write(norm)
				out[i].WriteByte('\n')
			}
		}
	}
	for _, body := range labels {
		do("/v1/labels", body)
	}
	for _, body := range solves {
		do("/v1/solve", body)
	}
	do("/v1/batch?ordered=1", strings.Join(solves, "\n"))
	return out[0].String(), out[1].String()
}

// stripRunFields deletes the wall clock (and optionally the cache_hit
// flag) from every object in a decoded JSON document.
func stripRunFields(doc any, dropCacheHit bool) {
	switch v := doc.(type) {
	case map[string]any:
		delete(v, "elapsed_ns")
		if dropCacheHit {
			delete(v, "cache_hit")
		}
		for _, child := range v {
			stripRunFields(child, dropCacheHit)
		}
	case []any:
		for _, child := range v {
			stripRunFields(child, dropCacheHit)
		}
	}
}

// TestDeterministicServing: identical requests serve identical bytes on
// a cold engine and on a Warm-ed one, pass after pass. The workload
// covers the catalogue's synthesis keys, a relabelled orient013 user
// problem (oracle-classified) and an inline problem_def, through
// /v1/labels, /v1/solve and /v1/batch. Labels run first on the cold
// engine, so its tables come from the label path while the warm
// engine's come from Warm: every shape sweep must build the same table.
// The second pass of each engine replays from the cache: zero new
// syntheses, and the bytes match the other engine's exactly (modulo
// elapsed_ns); every pass matches modulo cache_hit as well.
func TestDeterministicServing(t *testing.T) {
	user := renamedDef(t, "orient013", "u")
	inlineDoc, err := json.Marshal(renamedDef(t, "5col", "c"))
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() (*lclgrid.Engine, string) {
		eng := lclgrid.NewEngine()
		rec, _, err := eng.DefineProblem(user)
		if err != nil {
			t.Fatal(err)
		}
		return eng, rec.Key
	}
	cold, userKey := newEngine()
	warm, _ := newEngine()
	keys := []string{"5col", "mis", "orient134", "orient013", userKey}
	if _, err := warm.Warm(bg, keys...); err != nil {
		t.Fatal(err)
	}

	var labels, solves []string
	for _, key := range keys {
		labels = append(labels, fmt.Sprintf(`{"key":%q,"sides":[100000,100000],"seed":7,"x":99998,"y":42000,"w":6,"h":4}`, key))
		solves = append(solves, fmt.Sprintf(`{"key":%q,"n":20,"seed":3}`, key))
	}
	labels = append(labels, fmt.Sprintf(`{"key":"","problem_def":%s,"sides":[5000,7000],"seed":2,"x":10,"y":20,"w":5,"h":5}`, inlineDoc))
	solves = append(solves, fmt.Sprintf(`{"problem_def":%s,"n":16,"seed":5}`, inlineDoc))

	var exact, loose [2][2]string // [engine][pass]
	for i, eng := range []*lclgrid.Engine{cold, warm} {
		srv := lclgrid.NewServer(eng)
		for pass := 0; pass < 2; pass++ {
			before := eng.CacheStats().Misses
			exact[i][pass], loose[i][pass] = servePass(t, srv, labels, solves)
			if added := eng.CacheStats().Misses - before; pass == 1 && added != 0 {
				t.Errorf("engine %d pass 2 started %d syntheses, want 0", i, added)
			}
		}
	}
	if exact[0][1] != exact[1][1] {
		t.Errorf("second pass differs between the cold and the warmed engine:\ncold:\n%s\nwarm:\n%s", exact[0][1], exact[1][1])
	}
	for i := range loose {
		for pass := range loose[i] {
			if loose[i][pass] != loose[0][0] {
				t.Errorf("engine %d pass %d differs from the cold first pass beyond cache_hit:\ngot:\n%s\nwant:\n%s", i, pass+1, loose[i][pass], loose[0][0])
			}
		}
	}
}

// TestCachedStageTakesOnlyLeadingShapes: a table cached for a later
// attempt shape (here by a forced-power request) must not overtake an
// earlier shape that was never tried — later plain solves serve the
// shape a fresh engine serves. Covered for a registered spec with
// staged attempts and for an oracle-classified user problem.
func TestCachedStageTakesOnlyLeadingShapes(t *testing.T) {
	staged := func() *lclgrid.Registry {
		reg := lclgrid.NewRegistry()
		if err := reg.Register(&lclgrid.ProblemSpec{
			Key: "5col-staged", Name: "5-colouring, staged shapes", Dims: 2,
			Class: lclgrid.ClassLogStar, MinSide: 12,
			Problem:  func() *lclgrid.Problem { return lclgrid.VertexColoring(5, 2) },
			Attempts: []lclgrid.SynthAttempt{{K: 1, H: 3, W: 2}, {K: 1, H: 3, W: 3}},
		}); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	user := renamedDef(t, "5col", "hue")
	cases := []struct {
		name string
		eng  func() (*lclgrid.Engine, string)
	}{
		{"registered", func() (*lclgrid.Engine, string) {
			return lclgrid.NewEngine(lclgrid.WithRegistry(staged())), "5col-staged"
		}},
		{"user", func() (*lclgrid.Engine, string) {
			eng := lclgrid.NewEngine()
			rec, _, err := eng.DefineProblem(user)
			if err != nil {
				t.Fatal(err)
			}
			return eng, rec.Key
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, key := tc.eng()
			want, err := fresh.Solve(bg, lclgrid.SolveRequest{Key: key, N: 16, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(want.Note, "k=1 window 3x2") {
				t.Fatalf("fresh engine serves %q, want the schedule-first 3x2 window", want.Note)
			}
			eng, key := tc.eng()
			forced, err := eng.Solve(bg, lclgrid.SolveRequest{Key: key, N: 16, Power: 1, H: 3, W: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(forced.Note, "k=1 window 3x3") {
				t.Fatalf("forced solve serves %q, want the 3x3 window", forced.Note)
			}
			for seed := int64(1); seed <= 2; seed++ {
				res, err := eng.Solve(bg, lclgrid.SolveRequest{Key: key, N: 16, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.Note != want.Note {
					t.Errorf("plain solve after the forced one serves %q, a fresh engine %q", res.Note, want.Note)
				}
			}
		})
	}
}
