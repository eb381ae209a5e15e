package lclgrid

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"lclgrid/internal/core"
)

// relabelled returns the catalogue problem key with every label renamed
// by prefix: the same CSP under a new fingerprint, so each relabelling
// is a cold synthesis on an engine that has seen the others.
func relabelled(t testing.TB, key, prefix string) *Problem {
	t.Helper()
	spec, err := DefaultRegistry().Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Problem()
	labels := make([]string, p.K())
	for a := range labels {
		labels[a] = prefix + p.Label(a)
	}
	return NewProblem(prefix+" "+p.Name(), labels, p.Dims(), p.Allowed, p.NodeOK)
}

// freshTable is the table a fresh core.Synthesize builds for (p, k, h, w).
func freshTable(t *testing.T, p *Problem, k, h, w int) []int {
	t.Helper()
	alg, err := core.Synthesize(context.Background(), p, k, h, w)
	if err != nil {
		t.Fatal(err)
	}
	return alg.Table
}

// TestSharedGraphAcrossProblems: two problems synthesized at one shape
// of the default schedule on one engine point at one tile graph, the
// engine's, and their tables are those of a fresh core.Synthesize.
func TestSharedGraphAcrossProblems(t *testing.T) {
	e := NewEngine()
	var algs []*Synthesized
	for _, prefix := range []string{"a", "b"} {
		p := relabelled(t, "5col", prefix)
		alg, cached, err := e.Synthesize(context.Background(), p, 1, 3, 2)
		if err != nil || cached {
			t.Fatalf("%s: cached=%v err=%v, want a cold synthesis", p.Name(), cached, err)
		}
		if want := freshTable(t, p, 1, 3, 2); !slices.Equal(alg.Table, want) {
			t.Errorf("%s: table differs from a fresh core.Synthesize", p.Name())
		}
		algs = append(algs, alg)
	}
	if algs[0].Graph != algs[1].Graph {
		t.Error("two syntheses of the 3x2 shape built two tile graphs, want one shared")
	}
	if kept := e.graphs[[3]int{1, 3, 2}].tg.Load(); kept != algs[0].Graph {
		t.Error("the syntheses' graph is not the engine's shared 3x2 graph")
	}
	if e.Reset(); e.graphs[[3]int{1, 3, 2}].tg.Load() != algs[0].Graph {
		t.Error("Reset dropped the shared graph; it is geometry, not a cached outcome")
	}
}

// cancelAtSynthesis cancels a context when a synthesis of one shape
// starts, so the shape's first graph build runs under a cancelled
// context.
type cancelAtSynthesis struct {
	k, h, w int
	mu      sync.Mutex
	cancel  context.CancelFunc
}

func (o *cancelAtSynthesis) Observe(ev Event) {
	if ev.Kind != EventSynthesisStart || ev.Key.K != o.k || ev.Key.H != o.h || ev.Key.W != o.w {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cancel != nil {
		o.cancel()
	}
}

// TestSharedGraphCancelledBuildNotKept: a context cancelled as the first
// 7×7 build starts aborts the synthesis, the engine keeps no graph for
// the shape, and the next synthesis builds it and completes.
func TestSharedGraphCancelledBuildNotKept(t *testing.T) {
	obs := &cancelAtSynthesis{k: 3, h: 7, w: 7}
	e := NewEngine(WithObserver(obs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs.mu.Lock()
	obs.cancel = cancel
	obs.mu.Unlock()
	p := relabelled(t, "3col", "a")
	if _, _, err := e.Synthesize(ctx, p, 3, 7, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("synthesis under a cancelled build: err=%v, want context.Canceled", err)
	}
	slot := e.graphs[[3]int{3, 7, 7}]
	if slot.tg.Load() != nil {
		t.Fatal("an aborted build left a graph in the engine")
	}

	obs.mu.Lock()
	obs.cancel = nil
	obs.mu.Unlock()
	alg, cached, err := e.Synthesize(context.Background(), p, 3, 7, 7)
	if cached || !errors.Is(err, ErrUnsatisfiable) || alg != nil {
		t.Fatalf("synthesis after the abort: cached=%v err=%v, want a cold UNSAT verdict", cached, err)
	}
	if slot.tg.Load() == nil {
		t.Error("the completed build was not kept")
	}
	if misses := e.CacheStats().Misses; misses != 2 {
		t.Errorf("Misses=%d, want 2 (the aborted and the completed synthesis)", misses)
	}
}

// TestForcedShapeBuildsFreshGraph: a shape outside the default schedule
// gets a fresh graph on every synthesis and the engine keeps none.
func TestForcedShapeBuildsFreshGraph(t *testing.T) {
	e := NewEngine()
	const k, h, w = 1, 3, 4
	if _, ok := e.graphs[[3]int{k, h, w}]; ok {
		t.Fatalf("shape k=%d %dx%d unexpectedly in the default schedule", k, h, w)
	}
	var algs []*Synthesized
	for _, prefix := range []string{"a", "b"} {
		p := relabelled(t, "5col", prefix)
		alg, _, err := e.Synthesize(context.Background(), p, k, h, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshTable(t, p, k, h, w); !slices.Equal(alg.Table, want) {
			t.Errorf("%s: table differs from a fresh core.Synthesize", p.Name())
		}
		algs = append(algs, alg)
	}
	if algs[0].Graph == algs[1].Graph {
		t.Error("two syntheses of a forced shape share a graph, want a fresh one each")
	}
	if len(e.graphs) != len(core.OracleSchedule(3)) {
		t.Errorf("engine holds %d graph slots, want the %d default-schedule shapes", len(e.graphs), len(core.OracleSchedule(3)))
	}
}

// TestSharedGraphConcurrentBuild: eight goroutines synthesizing distinct
// relabellings of 4col at k=3 7×5 on one cold engine wait for one build
// (every table points at one graph) and get identical tables, those of
// a fresh core.Synthesize.
func TestSharedGraphConcurrentBuild(t *testing.T) {
	const callers = 8
	e := NewEngine()
	algs := make([]*Synthesized, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		p := relabelled(t, "4col", string(rune('a'+i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			algs[i], _, errs[i] = e.Synthesize(context.Background(), p, 3, 7, 5)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	want := freshTable(t, relabelled(t, "4col", "fresh"), 3, 7, 5)
	for i, alg := range algs {
		if alg.Graph != algs[0].Graph {
			t.Errorf("caller %d got its own graph, want the one shared build", i)
		}
		if !slices.Equal(alg.Table, want) {
			t.Errorf("caller %d: table differs from a fresh core.Synthesize", i)
		}
	}
	if misses := e.CacheStats().Misses; misses != callers {
		t.Errorf("Misses=%d, want %d (one synthesis per relabelling)", misses, callers)
	}
}

// TestNotATileStopsPlan: a cached table that meets a window it does not
// hold fails the solve with ErrNotATile at the cached-table stage; the
// plan's later synthesis stage never runs and nothing is synthesized.
func TestNotATileStopsPlan(t *testing.T) {
	counts := &CountingObserver{}
	e := NewEngine(WithObserver(counts))
	spec, err := e.Registry().Lookup("orient134")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Problem()
	alg, err := core.Synthesize(context.Background(), p, 1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only the first tile: every other observed window is missing.
	wire := alg.Wire()
	wire.Tiles, wire.Table = wire.Tiles[:1], wire.Table[:1]
	broken, err := wire.Decode()
	if err != nil {
		t.Fatal(err)
	}
	e.Cache().Put(SynthKey{Fingerprint: p.Fingerprint(), K: 1, H: 3, W: 3}, CachedSynthesis{Alg: broken})

	req := SolveRequest{Key: "orient134", N: 24, Seed: 1}
	plan, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []StrategyKind
	for _, st := range plan.Strategies {
		kinds = append(kinds, st.Kind)
	}
	if !slices.Equal(kinds, []StrategyKind{StrategyCached, StrategySynthesis, StrategyBaseline}) {
		t.Fatalf("plan stages %v, want cached-table, synthesis, baseline", kinds)
	}
	res, err := e.Solve(context.Background(), req)
	if !errors.Is(err, ErrNotATile) {
		t.Fatalf("solve over a table with missing tiles: res=%v err=%v, want ErrNotATile", res, err)
	}
	if c := counts.Counts(); c.Strategies != 1 {
		t.Errorf("%d plan stages ran, want 1 (the cached-table stage only)", c.Strategies)
	}
	if misses := e.CacheStats().Misses; misses != 0 {
		t.Errorf("Misses=%d, want 0: no synthesis may run after a tile miss", misses)
	}
}
