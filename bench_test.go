package lclgrid_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"

	lclgrid "lclgrid"
	"lclgrid/internal/experiments"
	"lclgrid/internal/sat"
	"lclgrid/internal/tiles"
)

// The benchmarks below regenerate every table/figure of the paper, one
// benchmark per experiment id (see DESIGN.md's per-experiment index).
// Run `go test -bench=. -benchmem` to print the paper-vs-measured tables;
// verbose tables go to stderr once per benchmark.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var exp experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	// Print the table once for the record, then benchmark silently.
	ctx := context.Background()
	fmt.Fprintf(os.Stderr, "--- %s: %s ---\n", exp.ID, exp.Title)
	if err := exp.Run(ctx, os.Stderr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(ctx, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1CycleClassification(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2TileEnumeration(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3Synthesis4Colouring(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4SynthesisOrientation(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5VertexColouringThreshold(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6EdgeColouringThreshold(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7OrientationClassification(b *testing.B) {
	benchExperiment(b, "E7")
}
func BenchmarkE8RoundScaling(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE9Undecidability(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10ThreeColouringInvariant(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11OrientationInvariant(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12CornerCoordination(b *testing.B)      { benchExperiment(b, "E12") }

// --- Component micro-benchmarks -------------------------------------------

func BenchmarkTileEnumerationK3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tiles.Count(3, 7, 5) != 2079 {
			b.Fatal("tile count drifted")
		}
	}
}

func BenchmarkTileEnumerationPacked(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		keys, err := tiles.EnumeratePacked(ctx, 3, 7, 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(keys) != 2079 {
			b.Fatal("packed tile count drifted")
		}
	}
}

// BenchmarkSATPropagation isolates unit propagation: an implication
// cascade alternating binary links (inline-watcher path) and ternary
// links (blocker/long-clause path), fired by a single unit at the end.
func BenchmarkSATPropagation(b *testing.B) {
	const n = 4096
	for i := 0; i < b.N; i++ {
		s := sat.NewSolver(n)
		for v := 0; v+2 < n; v += 2 {
			s.AddClause(sat.Neg(v), sat.Pos(v+1))
			s.AddClause(sat.Neg(v), sat.Neg(v+1), sat.Pos(v+2))
		}
		s.AddClause(sat.Pos(0)) // triggers the full cascade
		if !s.Solve() {
			b.Fatal("chain must be SAT")
		}
		if s.Stats.Propagated < n-2 {
			b.Fatalf("expected a full cascade, propagated only %d", s.Stats.Propagated)
		}
	}
}

func BenchmarkAnchorsK3(b *testing.B) {
	g := lclgrid.Square(64)
	ids := lclgrid.PermutedIDs(g.N(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r lclgrid.Rounds
		lclgrid.Anchors(g, 3, lclgrid.L1, ids, &r)
	}
}

func BenchmarkNormalForm4ColouringApply(b *testing.B) {
	alg, err := lclgrid.Synthesize(context.Background(), lclgrid.VertexColoring(4, 2), 3, 7, 5)
	if err != nil {
		b.Fatal(err)
	}
	g := lclgrid.Square(56)
	ids := lclgrid.PermutedIDs(g.N(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := alg.Run(g, ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalBaseline3Colouring(b *testing.B) {
	p := lclgrid.VertexColoring(3, 2)
	g := lclgrid.Square(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := lclgrid.SolveGlobal(context.Background(), p, g); !ok || err != nil {
			b.Fatal("unsolvable")
		}
	}
}

func BenchmarkCycleSynthesisMIS(b *testing.B) {
	p := lclgrid.CycleMIS()
	for i := 0; i < b.N; i++ {
		if _, err := p.Synthesize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSATPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.NewSolver(6 * 5)
		v := func(p, h int) int { return p*5 + h }
		for p := 0; p < 6; p++ {
			lits := make([]sat.Lit, 5)
			for h := 0; h < 5; h++ {
				lits[h] = sat.Pos(v(p, h))
			}
			s.AddClause(lits...)
		}
		for h := 0; h < 5; h++ {
			for p1 := 0; p1 < 6; p1++ {
				for p2 := p1 + 1; p2 < 6; p2++ {
					s.AddClause(sat.Neg(v(p1, h)), sat.Neg(v(p2, h)))
				}
			}
		}
		if s.Solve() {
			b.Fatal("PHP(6,5) must be UNSAT")
		}
	}
}

func BenchmarkFourColorDirect(b *testing.B) {
	g := lclgrid.Square(128)
	ids := lclgrid.PermutedIDs(g.N(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r lclgrid.Rounds
		if _, _, err := lclgrid.FourColor(g, ids, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine synthesis cache ------------------------------------------------

// The cold/cached pair measures the synthesis-cache win of the Engine on
// the paper's headline problem (4-colouring, k = 3 over 2079 tiles): cold
// pays the SAT synthesis on every solve, cached pays it once per problem
// fingerprint.

func BenchmarkEngineSolveCold(b *testing.B) {
	ctx := context.Background()
	req := lclgrid.SolveRequest{Key: "4col", N: 28, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := lclgrid.NewEngine() // fresh cache: every solve synthesizes
		if _, err := eng.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSolveCached(b *testing.B) {
	ctx := context.Background()
	eng := lclgrid.NewEngine()
	req := lclgrid.SolveRequest{Key: "4col", N: 28, Seed: 1}
	if _, err := eng.Solve(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	if stats := eng.CacheStats(); stats.Misses != 1 {
		b.Fatalf("cached benchmark synthesized %d times", stats.Misses)
	}
}

// BenchmarkEngineSolveBatch measures batch throughput over a mixed
// 32-request workload (four problem fingerprints, eight tori each) at
// 1, 4 and 16 workers — the first perf trajectory numbers for the
// request/response path. The engine is warmed so the numbers measure
// pool scheduling plus the Θ(log* n)/O(1) runs, not the one-off SAT
// syntheses.
func BenchmarkEngineSolveBatch(b *testing.B) {
	ctx := context.Background()
	keys := []string{"5col", "mis", "orient134", "is"}
	var reqs []lclgrid.SolveRequest
	for i := 0; i < 32; i++ {
		reqs = append(reqs, lclgrid.SolveRequest{Key: keys[i%len(keys)], N: 16, Seed: int64(i + 1)})
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := lclgrid.NewEngine()
			items, _ := eng.SolveBatch(ctx, reqs, lclgrid.WithWorkers(workers)) // warm the cache
			for i, it := range items {
				if it.Err != nil {
					b.Fatalf("request %d: %v", i, it.Err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, stats := eng.SolveBatch(ctx, reqs, lclgrid.WithWorkers(workers))
				if stats.Errors != 0 {
					b.Fatalf("batch errors: %+v, first item err %v", stats, firstErr(items))
				}
			}
		})
	}
}

func firstErr(items []lclgrid.BatchItem) error {
	for _, it := range items {
		if it.Err != nil {
			return it.Err
		}
	}
	return nil
}

// BenchmarkEngineSolveStream is the streaming counterpart of
// BenchmarkEngineSolveBatch: the same warmed 32-request workload
// consumed through SolveStream in completion order. The delta against
// SolveBatch is the cost of order-preserving collection.
func BenchmarkEngineSolveStream(b *testing.B) {
	ctx := context.Background()
	keys := []string{"5col", "mis", "orient134", "is"}
	var reqs []lclgrid.SolveRequest
	for i := 0; i < 32; i++ {
		reqs = append(reqs, lclgrid.SolveRequest{Key: keys[i%len(keys)], N: 16, Seed: int64(i + 1)})
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := lclgrid.NewEngine()
			if items, _ := eng.SolveBatch(ctx, reqs, lclgrid.WithWorkers(workers)); firstErr(items) != nil { // warm the cache
				b.Fatal(firstErr(items))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for it, err := range eng.SolveStream(ctx, slices.Values(reqs), lclgrid.WithWorkers(workers)) {
					if err != nil {
						b.Fatalf("request %d: %v", it.Index, err)
					}
					n++
				}
				if n != len(reqs) {
					b.Fatalf("stream yielded %d items for %d requests", n, len(reqs))
				}
			}
		})
	}
}

// BenchmarkClassifySequential / BenchmarkClassifyParallel measure the
// racing window sweep of the classification oracle on a cold cache.
// The subject is MIS at k = 1: the 3×2 window is a ~4ms UNSAT proof and
// the 3×3 window a ~12ms successful synthesis, so the sequential sweep
// pays their sum while the parallel sweep pays roughly the maximum —
// on ≥4 cores the parallel wall-clock sits below the sequential sum of
// the attempt times. The engine cache is reset every iteration so each
// classification is genuinely cold (exactly one completed synthesis per
// winning fingerprint; the parallel run may additionally start-and-
// abort the losing candidate).
func benchClassifyCold(b *testing.B, workers int) {
	ctx := context.Background()
	eng := lclgrid.NewEngine(lclgrid.WithSynthWorkers(workers))
	p := lclgrid.MIS(2).Problem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		res := eng.Classify(ctx, p, 1)
		if res.Class != lclgrid.ClassLogStar {
			b.Fatalf("classification drifted: %v (err %v)", res.Class, res.Err)
		}
	}
}

func BenchmarkClassifySequential(b *testing.B) { benchClassifyCold(b, 1) }
func BenchmarkClassifyParallel(b *testing.B)   { benchClassifyCold(b, 0) } // 0 = GOMAXPROCS

// BenchmarkEngineSolveDiskWarm pairs with BenchmarkEngineSolveCold:
// the same fresh-engine-per-solve workload, but over a disk-warmed
// cache directory, so every solve deserializes the k = 3 4-colouring
// table instead of re-running the SAT synthesis. The cold/disk-warm
// ratio is the value of `lclgrid warm -cache-dir` on a service restart.
func BenchmarkEngineSolveDiskWarm(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	req := lclgrid.SolveRequest{Key: "4col", N: 28, Seed: 1}
	if _, err := lclgrid.NewEngine(lclgrid.WithCacheDir(dir)).Solve(ctx, req); err != nil { // warm the directory
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := lclgrid.NewEngine(lclgrid.WithCacheDir(dir)) // fresh process-equivalent: cold memory, warm disk
		if _, err := eng.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
		if misses := eng.CacheStats().Misses; misses != 0 {
			b.Fatalf("disk-warmed solve synthesized %d times", misses)
		}
	}
}

// BenchmarkLabelWindowWarm measures the coordinate-addressed labeling
// path on a warm engine: one 8×6 window of a 10^10-node torus per
// iteration, pure table lookups — the subsystem's headline operation.
func BenchmarkLabelWindowWarm(b *testing.B) {
	ctx := context.Background()
	eng := lclgrid.NewEngine()
	req := lclgrid.LabelRequest{
		Key: "mis", Sides: []int{100_000, 100_000}, Seed: 7,
		X: 99_998, Y: 42_000, W: 8, H: 6,
	}
	if _, err := eng.LabelWindow(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.LabelWindow(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	if stats := eng.CacheStats(); stats.Misses != 1 {
		b.Fatalf("warm benchmark synthesized %d times", stats.Misses)
	}
}

// BenchmarkLabelWindowHuge is BenchmarkLabelWindowWarm on a 10^12-node
// torus (10^6×10^6), the largest size /v1/labels windows are drawn
// from: the rung where deriving the Linial schedule per evaluator
// would dominate if it cost more than microseconds.
func BenchmarkLabelWindowHuge(b *testing.B) {
	ctx := context.Background()
	eng := lclgrid.NewEngine()
	req := lclgrid.LabelRequest{
		Key: "mis", Sides: []int{1_000_000, 1_000_000}, Seed: 7,
		X: 999_998, Y: 420_000, W: 8, H: 6,
	}
	if _, err := eng.LabelWindow(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.LabelWindow(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	if stats := eng.CacheStats(); stats.Misses != 1 {
		b.Fatalf("warm benchmark synthesized %d times", stats.Misses)
	}
}

// BenchmarkExportGrid measures streaming whole-grid export throughput
// (bounded memory, evaluator reset between bands) on a 100×100 torus.
func BenchmarkExportGrid(b *testing.B) {
	ctx := context.Background()
	eng := lclgrid.NewEngine()
	req := lclgrid.ExportRequest{Key: "mis", N: 100, Seed: 7, BandRows: 25}
	sink := func(lclgrid.LabelBand) error { return nil }
	if err := eng.ExportGrid(ctx, req, sink); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ExportGrid(ctx, req, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100 * 100 * 4)
}

// BenchmarkProblemDefCompile measures the wire→engine path of the
// problem DSL: JSON decode, structural validation and table
// materialisation of the catalogue's 5-colouring stated as a
// ProblemDef. This is the per-request overhead an inline "problem_def"
// solve pays over a registered key.
func BenchmarkProblemDefCompile(b *testing.B) {
	spec, err := lclgrid.DefaultRegistry().Lookup("5col")
	if err != nil {
		b.Fatal(err)
	}
	wire, err := json.Marshal(lclgrid.NewProblemDef(spec.Problem()))
	if err != nil {
		b.Fatal(err)
	}
	want := spec.Problem().Fingerprint()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var def lclgrid.ProblemDef
		if err := json.Unmarshal(wire, &def); err != nil {
			b.Fatal(err)
		}
		p, err := def.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if p.Fingerprint() != want {
			b.Fatal("fingerprint drifted")
		}
	}
}

// The cold/cached pair below measures a user-defined problem through
// the full DSL pipeline (DefineProblem + Solve by the "user:" key) on
// the 5-colouring restatement: cold pays registration and the k = 1
// oracle synthesis every iteration, cached pays them once and then
// serves from the fingerprint-shared synthesis cache.

func BenchmarkEngineSolveUserProblemCold(b *testing.B) {
	ctx := context.Background()
	spec, err := lclgrid.DefaultRegistry().Lookup("5col")
	if err != nil {
		b.Fatal(err)
	}
	def := lclgrid.NewProblemDef(spec.Problem())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := lclgrid.NewEngine() // fresh cache: every solve synthesizes
		rec, _, err := eng.DefineProblem(def)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Solve(ctx, lclgrid.SolveRequest{Key: rec.Key, N: 16, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSolveUserProblemCached(b *testing.B) {
	ctx := context.Background()
	spec, err := lclgrid.DefaultRegistry().Lookup("5col")
	if err != nil {
		b.Fatal(err)
	}
	def := lclgrid.NewProblemDef(spec.Problem())
	eng := lclgrid.NewEngine()
	rec, _, err := eng.DefineProblem(def)
	if err != nil {
		b.Fatal(err)
	}
	req := lclgrid.SolveRequest{Key: rec.Key, N: 16, Seed: 1}
	if _, err := eng.Solve(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	if stats := eng.CacheStats(); stats.Misses != 1 {
		b.Fatalf("cached benchmark synthesized %d times", stats.Misses)
	}
}
