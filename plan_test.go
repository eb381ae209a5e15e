package lclgrid_test

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	lclgrid "lclgrid"
)

// TestPlanExplainNoSynthesis is the explainability acceptance contract:
// Engine.Plan ranks the strategies for a request without performing any
// SAT work, and the ranked list matches what Solve would do.
func TestPlanExplainNoSynthesis(t *testing.T) {
	eng := lclgrid.NewEngine()
	plan, err := eng.Plan(lclgrid.SolveRequest{Key: "4col", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Key != "4col" || plan.Class != lclgrid.ClassLogStar {
		t.Errorf("plan header = %q/%v, want 4col/Θ(log* n)", plan.Key, plan.Class)
	}
	if len(plan.Strategies) != 2 {
		t.Fatalf("plan has %d strategies, want synthesis + baseline:\n%v", len(plan.Strategies), plan)
	}
	synth := plan.Strategies[0]
	if synth.Kind != lclgrid.StrategySynthesis || synth.Skip == "" {
		t.Errorf("stage 0 = %+v, want synthesis skipped (torus 8 below MinTorusSide 28)", synth)
	}
	if len(synth.Attempts) != 1 || synth.Attempts[0].MinSide != 28 || synth.Attempts[0].Fits {
		t.Errorf("synthesis attempts = %+v, want one k=3 7x5 attempt with MinSide 28 that does not fit", synth.Attempts)
	}
	base := plan.Strategies[1]
	if base.Kind != lclgrid.StrategyBaseline || !base.Fallback {
		t.Errorf("stage 1 = %+v, want the gated Θ(n) fallback", base)
	}
	// Planning is probe-only: zero syntheses, zero cache traffic counted.
	if stats := eng.CacheStats(); stats.Misses != 0 || stats.Hits != 0 {
		t.Errorf("planning touched the synthesis path: %+v", stats)
	}
	// The plan is JSON-marshallable (the `lclgrid explain` wire form).
	b, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"synthesis"`, `"kind":"baseline"`, `"min_side":28`, `"fallback":true`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("plan JSON missing %s:\n%s", want, b)
		}
	}
}

// TestSolveTraceFallback is the fallback-trace contract: a request below
// the registered normal form's minimum side produces a Trace showing
// synthesis skipped → baseline used, and the Result's JSON wire form is
// identical to the plain Θ(n) fallback result (the trace is engine
// observability, not wire data).
func TestSolveTraceFallback(t *testing.T) {
	eng := lclgrid.NewEngine()
	res, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "4col", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %+v, want [synthesis skipped, baseline ok]", res.Trace)
	}
	if res.Trace[0].Strategy != lclgrid.StrategySynthesis || res.Trace[0].Outcome != lclgrid.TraceSkipped {
		t.Errorf("trace[0] = %+v, want synthesis skipped", res.Trace[0])
	}
	if !strings.Contains(res.Trace[0].Detail, "below the smallest side") {
		t.Errorf("trace[0] detail %q does not explain the skip", res.Trace[0].Detail)
	}
	if res.Trace[1].Strategy != lclgrid.StrategyBaseline || res.Trace[1].Outcome != lclgrid.TraceOK {
		t.Errorf("trace[1] = %+v, want baseline ok", res.Trace[1])
	}

	// The wire form is byte-identical to the baseline solver's own result
	// (plus the registered class and the engine's Elapsed stamp), with no
	// trace key: downstream JSONL consumers see exactly the pre-planner
	// fallback output.
	spec, err := eng.Registry().Lookup("4col")
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&lclgrid.GlobalSolver{Problem: spec.Problem(), KnownClass: spec.Class}).
		Solve(bg, lclgrid.Square(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := *res
	got.Elapsed = 0 // stamped per call; not part of the comparison
	gotJSON, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("fallback wire form drifted:\n got  %s\n want %s", gotJSON, wantJSON)
	}
	if strings.Contains(string(gotJSON), "trace") {
		t.Errorf("wire form leaks the trace: %s", gotJSON)
	}
}

// TestSolveTraceMatchesPlan: the Trace a Solve records lines up stage by
// stage with the Plan the engine builds for the same request.
func TestSolveTraceMatchesPlan(t *testing.T) {
	eng := lclgrid.NewEngine()
	for _, req := range []lclgrid.SolveRequest{
		{Key: "4col", N: 16},   // synthesis skipped → baseline
		{Key: "5col", N: 16},   // synthesis ok
		{Key: "is", N: 4},      // constant fill
		{Key: "3col", N: 6},    // primary baseline
		{Key: "lm:halt", N: 9}, // direct L_M
	} {
		plan, err := eng.Plan(req)
		if err != nil {
			t.Fatalf("%s: plan: %v", req.Key, err)
		}
		res, err := eng.Solve(bg, req)
		if err != nil {
			t.Fatalf("%s: solve: %v", req.Key, err)
		}
		if len(res.Trace) == 0 || len(res.Trace) > len(plan.Strategies) {
			t.Fatalf("%s: trace has %d steps for a %d-stage plan", req.Key, len(res.Trace), len(plan.Strategies))
		}
		for i, step := range res.Trace {
			if step.Strategy != plan.Strategies[i].Kind {
				t.Errorf("%s: trace[%d] = %v, plan stage %d = %v", req.Key, i, step.Strategy, i, plan.Strategies[i].Kind)
			}
		}
		if last := res.Trace[len(res.Trace)-1]; last.Outcome != lclgrid.TraceOK {
			t.Errorf("%s: final trace step = %+v, want ok", req.Key, last)
		}
	}
}

// TestPlanCachedTableStage: once a table is cached, the planner ranks a
// cached-table stage first and the solve is served by it (trace and
// CacheHit agree).
func TestPlanCachedTableStage(t *testing.T) {
	eng := lclgrid.NewEngine()
	cold, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "5col", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Trace[len(cold.Trace)-1].Strategy != lclgrid.StrategySynthesis {
		t.Errorf("cold solve served by %v, want the synthesis stage", cold.Trace)
	}
	plan, err := eng.Plan(lclgrid.SolveRequest{Key: "5col", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The cached stage owns the (only) shape entirely, so no synthesis
	// stage remains: [cached-table, baseline].
	if len(plan.Strategies) != 2 || plan.Strategies[0].Kind != lclgrid.StrategyCached {
		t.Fatalf("warm plan = %v, want cached-table ranked first with no residual synthesis stage", plan)
	}
	if atts := plan.Strategies[0].Attempts; len(atts) != 1 || !atts[0].Cached {
		t.Errorf("cached stage attempts = %+v, want the cached k=1 3x2 shape", atts)
	}
	warm, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "5col", N: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("warm solve did not record the cache hit")
	}
	if warm.Trace[0].Strategy != lclgrid.StrategyCached || warm.Trace[0].Outcome != lclgrid.TraceOK {
		t.Errorf("warm trace = %+v, want cached-table ok first", warm.Trace)
	}
}

// TestPlanCachedUnsatNotReplayed: a cached UNSAT is owned by the
// cached-outcome stage — the planner must not advertise it as a served
// table twice (a residual synthesis stage replaying the same cache
// entry), and the solve must report the honest UNSAT failure.
func TestPlanCachedUnsatNotReplayed(t *testing.T) {
	reg := lclgrid.DefaultRegistry()
	if err := reg.Register(&lclgrid.ProblemSpec{
		Key: "doomed", Name: "doomed", Class: lclgrid.ClassLogStar,
		Problem: func() *lclgrid.Problem { return lclgrid.VertexColoring(4, 2) },
		// 4-colouring is UNSAT at k=1 with 3×2 windows.
		Attempts: []lclgrid.SynthAttempt{{K: 1, H: 3, W: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	eng := lclgrid.NewEngine(lclgrid.WithRegistry(reg))
	if _, _, err := eng.Synthesize(bg, lclgrid.VertexColoring(4, 2), 1, 3, 2); !errors.Is(err, lclgrid.ErrUnsatisfiable) {
		t.Fatalf("priming synthesis: err = %v, want ErrUnsatisfiable", err)
	}
	plan, err := eng.Plan(lclgrid.SolveRequest{Key: "doomed", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]lclgrid.StrategyKind, len(plan.Strategies))
	for i := range plan.Strategies {
		kinds[i] = plan.Strategies[i].Kind
		if plan.Strategies[i].Kind == lclgrid.StrategySynthesis {
			t.Errorf("plan %v replays the cached shape in a synthesis stage", kinds)
		}
	}
	res, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "doomed", N: 16})
	if !errors.Is(err, lclgrid.ErrUnsatisfiable) {
		t.Fatalf("solve: err = %v (res %v), want the honest cached UNSAT", err, res)
	}
	if misses := eng.CacheStats().Misses; misses != 1 {
		t.Errorf("solve re-synthesized the cached UNSAT shape (%d misses, want the priming 1)", misses)
	}
}

// TestSynthesisSolverNoAttempts is the regression test for the empty
// attempt list: the solver must report that nothing was configured, not
// claim the problem unsatisfiable.
func TestSynthesisSolverNoAttempts(t *testing.T) {
	s := &lclgrid.SynthesisSolver{Problem: lclgrid.VertexColoring(5, 2)}
	_, err := s.Solve(bg, lclgrid.Square(16), nil)
	if err == nil {
		t.Fatal("empty-attempts solve succeeded")
	}
	if !strings.Contains(err.Error(), "no attempts configured") {
		t.Errorf("err = %v, want an explicit no-attempts-configured error", err)
	}
	if errors.Is(err, lclgrid.ErrUnsatisfiable) || strings.Contains(err.Error(), "unsatisfiable") {
		t.Errorf("err = %v, must not blame unsatisfiability", err)
	}
	// A forced power overrides the empty list, as before.
	if _, err := s.Solve(bg, lclgrid.Square(16), nil, lclgrid.WithPower(1)); err != nil {
		t.Errorf("forced-power solve over an empty attempt list failed: %v", err)
	}
}

// TestOrientationRaceCancelsLoser: the orientation spec's staged
// attempts ({1,3,3} then {2,5,5}, Lemma 23) are tried in order; the
// small k=1 shape admits a table within milliseconds, so the k=2 5×5
// search (a multi-second SAT instance) is never started — one
// synthesis, nothing aborted.
func TestOrientationRaceCancelsLoser(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&c))
	start := time.Now()
	// N=20 meets both minimum sides (12 and 20), so both shapes fit.
	res, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "orient134", N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("solve took %v; the k=2 shape was searched", elapsed)
	}
	if !strings.Contains(res.Note, "k=1 window 3x3") {
		t.Errorf("winner note = %q, want the k=1 3×3 table", res.Note)
	}
	if res.Verification != lclgrid.Verified {
		t.Errorf("result not verified: %v", res)
	}
	counts := c.Counts()
	if counts.Syntheses != 1 || counts.SynthesisAborts != 0 {
		t.Fatalf("syntheses = %d (%d aborted), want exactly the k=1 3×3 shape and no aborts", counts.Syntheses, counts.SynthesisAborts)
	}
	// Only the winner is cached.
	if stats := eng.CacheStats(); stats.Entries != 1 {
		t.Errorf("cache entries = %d, want only the winning table", stats.Entries)
	}
	// A repeat solve is served from the cached-table stage: no new synthesis.
	before := c.Counts().Syntheses
	if res, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "orient134", N: 20, Seed: 2}); err != nil || !res.CacheHit {
		t.Fatalf("warm repeat: err=%v cacheHit=%v", err, res.CacheHit)
	}
	if got := c.Counts().Syntheses; got != before {
		t.Errorf("warm repeat started %d new syntheses", got-before)
	}
}

// keyedStartObserver counts SynthesisStart events per SynthKey.
type keyedStartObserver struct {
	mu     sync.Mutex
	starts map[lclgrid.SynthKey]int
}

func (o *keyedStartObserver) Observe(ev lclgrid.Event) {
	switch ev.Kind {
	case lclgrid.EventSynthesisStart:
		o.mu.Lock()
		if o.starts == nil {
			o.starts = make(map[lclgrid.SynthKey]int)
		}
		o.starts[ev.Key]++
		o.mu.Unlock()
	}
}

// TestParallelSynthesisStress is the oracle stress contract (run under
// -race in CI): 16 goroutines classify the same problem over one engine
// at once; every caller gets the same Θ(log* n) answer, and the winning
// fingerprint's shape is synthesized exactly once — singleflight
// coalesces the concurrent sweeps.
func TestParallelSynthesisStress(t *testing.T) {
	var keyed keyedStartObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&keyed))
	p := lclgrid.MIS(2).Problem // k=1: 3×2 is UNSAT, 3×3 admits a table
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]lclgrid.OracleResult, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.Classify(bg, p, 1)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("goroutine %d: oracle aborted: %v", i, res.Err)
		}
		if res.Class != lclgrid.ClassLogStar || res.Alg == nil {
			t.Fatalf("goroutine %d: class %v, want Θ(log* n)", i, res.Class)
		}
		if res.Alg.K != 1 || res.Alg.H != 3 || res.Alg.W != 3 {
			t.Fatalf("goroutine %d: winner k=%d %dx%d, want the k=1 3×3 table", i, res.Alg.K, res.Alg.H, res.Alg.W)
		}
	}
	winner := lclgrid.SynthKey{Fingerprint: p.Fingerprint(), K: 1, H: 3, W: 3}
	keyed.mu.Lock()
	winnerStarts := keyed.starts[winner]
	keyed.mu.Unlock()
	if winnerStarts != 1 {
		t.Errorf("winning fingerprint synthesized %d times, want exactly 1", winnerStarts)
	}
	if !eng.Cache().Contains(winner) {
		t.Error("winning table not cached")
	}
	// Classifying again over the warm cache replays every shape from the
	// cache: zero new syntheses.
	before := eng.CacheStats().Misses
	if res := eng.Classify(bg, p, 1); res.Class != lclgrid.ClassLogStar {
		t.Fatalf("warm classify: %v", res.Class)
	}
	if got := eng.CacheStats().Misses; got != before {
		t.Errorf("warm classify started %d new syntheses", got-before)
	}
}

// TestWarmStaysSequential: Warm tries a spec's attempt shapes in order
// instead of racing them — the preferred (first) shape is cached and no
// speculative candidate is started or aborted.
func TestWarmStaysSequential(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&c))
	ws, err := eng.Warm(bg, "orient134")
	if err != nil {
		t.Fatal(err)
	}
	if ws.Warmed != 1 || ws.Syntheses != 1 {
		t.Errorf("warm stats = %+v, want 1 warmed with 1 synthesis (the k=1 3×3 shape)", ws)
	}
	counts := c.Counts()
	if counts.Syntheses != 1 || counts.SynthesisAborts != 0 {
		t.Errorf("warm ran %d syntheses (%d aborted), want exactly the first shape and no races", counts.Syntheses, counts.SynthesisAborts)
	}
}

// TestPlanObserverEvents: a solve emits PlanBuilt and one
// StrategyStart/StrategyEnd pair per executed (non-skipped) stage.
func TestPlanObserverEvents(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&c))
	// 4col at N=16: synthesis is skipped (no events), baseline executes.
	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "4col", N: 16}); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts.Plans != 1 {
		t.Errorf("plans = %d, want 1", counts.Plans)
	}
	if counts.Strategies != 1 || counts.StrategyErrors != 0 {
		t.Errorf("strategies = %d/%d errors, want exactly the baseline stage", counts.Strategies, counts.StrategyErrors)
	}
	if counts.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1 (too-small redirect)", counts.Fallbacks)
	}
	// A request error (unknown key) builds no plan.
	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "nope"}); err == nil {
		t.Fatal("unknown key succeeded")
	}
	if got := c.Counts().Plans; got != 1 {
		t.Errorf("plans after failed lookup = %d, want still 1", got)
	}
}

// TestPlanForcedPowerNoFallback: forcing a power produces a
// synthesis-only plan — the baseline must not rescue a request that
// demanded the normal form (the historic ErrTorusTooSmall contract).
func TestPlanForcedPowerNoFallback(t *testing.T) {
	eng := lclgrid.NewEngine()
	plan, err := eng.Plan(lclgrid.SolveRequest{Key: "4col", N: 16, Power: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Strategies {
		if plan.Strategies[i].Kind == lclgrid.StrategyBaseline {
			t.Errorf("forced-power plan contains a baseline stage: %v", plan)
		}
	}
	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "4col", N: 16, Power: 3}); !errors.Is(err, lclgrid.ErrTorusTooSmall) {
		t.Errorf("forced synthesis on a small torus: err = %v, want ErrTorusTooSmall", err)
	}
}

// TestSolveStreamCarriesTrace: results served through the worker pool
// carry traces too — the plan pipeline is the single execution path.
func TestSolveStreamCarriesTrace(t *testing.T) {
	eng := lclgrid.NewEngine()
	items, stats := eng.SolveBatch(bg, []lclgrid.SolveRequest{
		{Key: "is", N: 4},
		{Key: "4col", N: 16},
	}, lclgrid.WithWorkers(2))
	if stats.Errors != 0 {
		t.Fatalf("batch errors: %+v", items)
	}
	for i, it := range items {
		if len(it.Result.Trace) == 0 {
			t.Errorf("item %d carries no trace", i)
		}
	}
}

// TestPlanInlineProblem: inline problems plan through the oracle stage
// with the full shape schedule listed, and the executed trace matches.
func TestPlanInlineProblem(t *testing.T) {
	eng := lclgrid.NewEngine()
	req := lclgrid.SolveRequest{Problem: lclgrid.VertexColoring(5, 2), N: 16, MaxPower: 1}
	plan, err := eng.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Strategies) != 2 || plan.Strategies[0].Kind != lclgrid.StrategySynthesis {
		t.Fatalf("inline plan = %v, want oracle synthesis + baseline", plan)
	}
	if atts := plan.Strategies[0].Attempts; len(atts) != 2 {
		t.Errorf("oracle stage lists %d shapes, want the k=1 window schedule (3x2, 3x3)", len(atts))
	}
	res, err := eng.Solve(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != lclgrid.ClassLogStar {
		t.Errorf("class = %v, want Θ(log* n)", res.Class)
	}
	if res.Trace[len(res.Trace)-1].Strategy != lclgrid.StrategySynthesis {
		t.Errorf("trace = %+v, want the synthesis stage to win", res.Trace)
	}
	// A 3-dimensional inline problem: the oracle stage is planned as
	// skipped (2-d synthesis only) and the baseline serves it.
	res3, err := eng.Solve(bg, lclgrid.SolveRequest{Problem: lclgrid.VertexColoring(4, 3), Sides: []int{6, 6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace[0].Outcome != lclgrid.TraceSkipped || res3.Trace[1].Strategy != lclgrid.StrategyBaseline {
		t.Errorf("3-d trace = %+v, want [synthesis skipped, baseline ok]", res3.Trace)
	}
}

// TestInlineColdSolveIsNoCacheHit: the oracle stage looks each shape up
// once, so a cold inline solve reports no cache hit and counts none;
// only a repeat of the same request is served from the cache.
func TestInlineColdSolveIsNoCacheHit(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&c))
	spec, err := eng.Registry().Lookup("5col")
	if err != nil {
		t.Fatal(err)
	}
	req := lclgrid.SolveRequest{ProblemDef: lclgrid.NewProblemDef(spec.Problem()), N: 20}
	res, err := eng.Solve(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("cold inline solve reports cache_hit")
	}
	if st := eng.CacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("cold inline solve: hits=%d misses=%d, want 0 and 1", st.Hits, st.Misses)
	}
	if got := c.Counts().CacheHits; got != 0 {
		t.Errorf("cold inline solve emitted %d cache-hit events, want 0", got)
	}
	again, err := eng.Solve(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated inline solve does not report cache_hit")
	}
}

// TestInlineWinnerTooBigFallsBack: when the oracle's winning shape needs
// a larger torus than the request's, the synthesis stage fails with the
// too-small error and the baseline serves the request as a Θ(log* n)
// problem. 4col's first table is k=3 7x5, which needs side 28.
func TestInlineWinnerTooBigFallsBack(t *testing.T) {
	eng := lclgrid.NewEngine()
	spec, err := eng.Registry().Lookup("4col")
	if err != nil {
		t.Fatal(err)
	}
	def := lclgrid.NewProblemDef(spec.Problem())
	res, err := eng.Solve(bg, lclgrid.SolveRequest{ProblemDef: def, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 ||
		res.Trace[0].Strategy != lclgrid.StrategySynthesis || res.Trace[0].Outcome != lclgrid.TraceFailed ||
		res.Trace[1].Strategy != lclgrid.StrategyBaseline || res.Trace[1].Outcome != lclgrid.TraceOK {
		t.Fatalf("trace = %+v, want [synthesis failed, baseline ok]", res.Trace)
	}
	if res.Class != lclgrid.ClassLogStar {
		t.Errorf("class = %v, want Θ(log* n)", res.Class)
	}
	const detail = "lclgrid: no normal-form table for 4-colouring at the tried shapes: core: torus too small for this normal form: side must be at least 28 for k=3, 7x5 windows"
	if res.Trace[0].Detail != detail {
		t.Errorf("synthesis detail = %q, want %q", res.Trace[0].Detail, detail)
	}
}
