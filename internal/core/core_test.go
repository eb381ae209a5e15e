package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"lclgrid/internal/coloring"
	"lclgrid/internal/grid"
	"lclgrid/internal/lcl"
	"lclgrid/internal/local"
	"lclgrid/internal/tiles"
)

func TestBuildTileGraphK1(t *testing.T) {
	tg, err := BuildTileGraph(context.Background(), 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumTiles() != 16 {
		t.Fatalf("tiles = %d, want 16", tg.NumTiles())
	}
	if len(tg.HEdges) != tiles.Count(1, 3, 3) {
		t.Errorf("HEdges = %d, want %d", len(tg.HEdges), tiles.Count(1, 3, 3))
	}
	if len(tg.VEdges) != tiles.Count(1, 4, 2) {
		t.Errorf("VEdges = %d, want %d", len(tg.VEdges), tiles.Count(1, 4, 2))
	}
}

func TestDefaultWindow(t *testing.T) {
	if h, w := DefaultWindow(1); h != 3 || w != 2 {
		t.Errorf("k=1 window = %dx%d, want 3x2", h, w)
	}
	if h, w := DefaultWindow(3); h != 7 || w != 5 {
		t.Errorf("k=3 window = %dx%d, want 7x5", h, w)
	}
}

// TestSynthesize4ColouringMatchesPaper reproduces the central §7 numbers:
// 4-colouring synthesis fails for k = 1 and k = 2 and succeeds for k = 3
// with 7×5 windows over exactly 2079 tiles.
func TestSynthesize4ColouringMatchesPaper(t *testing.T) {
	p := lcl.VertexColoring(4, 2)
	if _, err := Synthesize(context.Background(), p, 1, 3, 2); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("k=1: err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := Synthesize(context.Background(), p, 2, 5, 3); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("k=2: err = %v, want ErrUnsatisfiable", err)
	}
	alg, err := Synthesize(context.Background(), p, 3, 7, 5)
	if err != nil {
		t.Fatalf("k=3: %v", err)
	}
	if alg.Graph.NumTiles() != 2079 {
		t.Errorf("k=3 tile count = %d, paper says 2079", alg.Graph.NumTiles())
	}
}

func TestSynthesized4ColouringRuns(t *testing.T) {
	p := lcl.VertexColoring(4, 2)
	alg, err := Synthesize(context.Background(), p, 3, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if alg.MinTorusSide() > 28 {
		t.Fatalf("MinTorusSide = %d, expected <= 28", alg.MinTorusSide())
	}
	for _, n := range []int{28, 31} {
		g := grid.Square(n)
		for _, seed := range []int64{1, 2} {
			out, rounds, err := alg.Run(g, local.PermutedIDs(g.N(), seed))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := p.Verify(g, out); err != nil {
				t.Fatalf("n=%d seed=%d: invalid 4-colouring: %v", n, seed, err)
			}
			if rounds.Total() <= 0 {
				t.Error("rounds not accounted")
			}
		}
	}
}

// TestSynthesizeOrientation134 reproduces Lemma 23: {1,3,4}-orientation
// is synthesizable with k = 1.
func TestSynthesizeOrientation134(t *testing.T) {
	op := lcl.XOrientation([]int{1, 3, 4}, 2)
	alg, err := Synthesize(context.Background(), op.Problem, 1, 3, 3)
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	g := grid.Square(16)
	out, _, err := alg.Run(g, local.PermutedIDs(g.N(), 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Verify(g, out); err != nil {
		t.Fatalf("invalid SFT labelling: %v", err)
	}
	o := lcl.OrientationFromLabels(op, g, out)
	if err := o.VerifyX([]int{1, 3, 4}); err != nil {
		t.Fatalf("decoded orientation invalid: %v", err)
	}
}

// TestSynthesizeMIS shows the oracle also covers the classic MIS problem
// at k = 1 (anchors themselves are a valid solution).
func TestSynthesizeMIS(t *testing.T) {
	mp := lcl.MIS(2)
	alg, err := Synthesize(context.Background(), mp.Problem, 1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.Square(14)
	out, _, err := alg.Run(g, local.PermutedIDs(g.N(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Verify(g, out); err != nil {
		t.Fatalf("invalid labelling: %v", err)
	}
	set := lcl.SetFromMISLabels(mp, out)
	if err := coloring.IsMIS(g, set); err != nil {
		t.Fatalf("decoded set is not an MIS: %v", err)
	}
}

func TestSynthesize3ColouringFails(t *testing.T) {
	p := lcl.VertexColoring(3, 2)
	for k := 1; k <= 2; k++ {
		h, w := DefaultWindow(k)
		if _, err := Synthesize(context.Background(), p, k, h, w); !errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("k=%d: err = %v, want ErrUnsatisfiable", k, err)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p := lcl.VertexColoring(5, 2)
	a1, err1 := Synthesize(context.Background(), p, 1, 3, 2)
	a2, err2 := Synthesize(context.Background(), p, 1, 3, 2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range a1.Table {
		if a1.Table[i] != a2.Table[i] {
			t.Fatal("synthesis is not deterministic")
		}
	}
}

func TestSynthesizeRejectsNon2D(t *testing.T) {
	if _, err := Synthesize(context.Background(), lcl.VertexColoring(3, 1), 1, 3, 2); err == nil {
		t.Error("expected dimension error")
	}
}

func TestRunRejectsSmallTorus(t *testing.T) {
	p := lcl.VertexColoring(5, 2)
	alg, err := Synthesize(context.Background(), p, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.Square(6)
	if _, _, err := alg.Run(g, local.SequentialIDs(g.N())); err == nil {
		t.Error("expected error on too-small torus")
	}
}

func TestSolveGlobalColourings(t *testing.T) {
	// 2-colouring: solvable iff n even (global problem).
	if _, ok, err := SolveGlobal(context.Background(), lcl.VertexColoring(2, 2), grid.Square(5)); ok || err != nil {
		t.Errorf("2-colouring on odd torus should be unsolvable (ok=%v err=%v)", ok, err)
	}
	g := grid.Square(6)
	sol, ok, err := SolveGlobal(context.Background(), lcl.VertexColoring(2, 2), g)
	if !ok || err != nil {
		t.Fatalf("2-colouring on even torus should be solvable (err=%v)", err)
	}
	if err := lcl.VertexColoring(2, 2).Verify(g, sol); err != nil {
		t.Fatal(err)
	}
	// 3-colouring solvable on 7×7 (global in time, but solutions exist).
	g7 := grid.Square(7)
	sol, ok, err = SolveGlobal(context.Background(), lcl.VertexColoring(3, 2), g7)
	if !ok || err != nil {
		t.Fatalf("3-colouring on 7×7 should be solvable (err=%v)", err)
	}
	if err := lcl.VertexColoring(3, 2).Verify(g7, sol); err != nil {
		t.Fatal(err)
	}
}

func TestSolveGlobalEdgeColouringParity(t *testing.T) {
	// Thm 21: no edge 2d-colouring for odd n.
	if _, ok, err := SolveGlobal(context.Background(), lcl.EdgeColoring(4, 2).Problem, grid.Square(3)); ok || err != nil {
		t.Errorf("edge 4-colouring on odd torus should be unsolvable (ok=%v err=%v)", ok, err)
	}
	g := grid.Square(4)
	ep := lcl.EdgeColoring(4, 2)
	sol, ok, err := SolveGlobal(context.Background(), ep.Problem, g)
	if !ok || err != nil {
		t.Fatalf("edge 4-colouring on even torus should be solvable (err=%v)", err)
	}
	if err := ep.Verify(g, sol); err != nil {
		t.Fatal(err)
	}
}

func TestSolveGlobalOrientationParity(t *testing.T) {
	// Lemma 24: no {1,3}-orientation for odd n.
	if _, ok, err := SolveGlobal(context.Background(), lcl.XOrientation([]int{1, 3}, 2).Problem, grid.Square(3)); ok || err != nil {
		t.Errorf("{1,3}-orientation on odd torus should be unsolvable (ok=%v err=%v)", ok, err)
	}
}

func TestClassifyOracle(t *testing.T) {
	if res := ClassifyOracle(context.Background(), lcl.IndependentSet(2), 1); res.Class != ClassO1 {
		t.Errorf("independent set class = %v, want O(1)", res.Class)
	}
	if res := ClassifyOracle(context.Background(), lcl.XOrientation([]int{2}, 2).Problem, 1); res.Class != ClassO1 {
		t.Errorf("X={2} class = %v, want O(1)", res.Class)
	}
	res := ClassifyOracle(context.Background(), lcl.VertexColoring(5, 2), 1)
	if res.Class != ClassLogStar || res.Alg == nil {
		t.Errorf("5-colouring class = %v, want Θ(log* n)", res.Class)
	}
	res = ClassifyOracle(context.Background(), lcl.VertexColoring(3, 2), 2)
	if res.Class != ClassUnknown {
		t.Errorf("3-colouring class = %v, want unknown", res.Class)
	}
	if len(res.Attempts) == 0 {
		t.Error("expected recorded attempts")
	}
}

// TestSynthesizeCancelled checks the ctx plumbing end to end at the core
// layer: a pre-cancelled context aborts before the SAT search, and a
// context cancelled mid-search aborts an in-flight synthesis at the next
// checkpoint instead of running to completion.
func TestSynthesizeCancelled(t *testing.T) {
	p := lcl.VertexColoring(4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Synthesize(ctx, p, 3, 7, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Mid-flight: 3-colouring at k=4 is a multi-second UNSAT search; a
	// 20ms deadline must abort it long before the search would finish.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Synthesize(ctx, lcl.VertexColoring(3, 2), 4, 9, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancel took %v, checkpoints are not being honoured", elapsed)
	}
}

func TestClassTextRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassUnknown, ClassO1, ClassLogStar, ClassGlobal} {
		b, err := c.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Class
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != c {
			t.Errorf("class %v round-tripped to %v via %q", c, back, b)
		}
	}
	var c Class
	if err := c.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown token must not unmarshal")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassO1: "O(1)", ClassLogStar: "Θ(log* n)", ClassGlobal: "Θ(n)",
	} {
		if c.String() != want {
			t.Errorf("String(%d) = %s", int(c), c)
		}
	}
}

func TestDiameter(t *testing.T) {
	if Diameter(grid.Square(8)) != 8 {
		t.Error("8×8 diameter should be 8")
	}
	if Diameter(grid.Square(7)) != 6 {
		t.Error("7×7 diameter should be 6")
	}
	if Diameter(grid.MustNew(5, 9, 4)) != 2+4+2 {
		t.Error("3-D diameter wrong")
	}
}

func TestSolveGlobalWithRounds(t *testing.T) {
	g := grid.Square(6)
	_, ok, rounds, err := SolveGlobalWithRounds(context.Background(), lcl.VertexColoring(3, 2), g)
	if !ok || err != nil || rounds.Total() != Diameter(g) {
		t.Errorf("rounds = %d, want %d", rounds.Total(), Diameter(g))
	}
}

func TestGatherRadius(t *testing.T) {
	alg := &Synthesized{H: 7, W: 5, OffR: 3, OffC: 2}
	if alg.GatherRadius() != 3+2 {
		t.Errorf("GatherRadius = %d, want 5", alg.GatherRadius())
	}
}

// TestClassifyOracleRaceSequential: the oracle walks its schedule
// strictly in order — the first window of the schedule wins before the
// second is ever tried.
func TestClassifyOracleRaceSequential(t *testing.T) {
	calls := 0
	synth := func(ctx context.Context, p *lcl.Problem, k, h, w int) (*Synthesized, error) {
		calls++
		return Synthesize(ctx, p, k, h, w)
	}
	res := ClassifyOracleWith(context.Background(), synth, lcl.VertexColoring(5, 2), 1)
	if res.Class != ClassLogStar || res.Alg == nil {
		t.Fatalf("class = %v, want Θ(log* n)", res.Class)
	}
	if res.Alg.H != 3 || res.Alg.W != 2 {
		t.Errorf("sequential winner = %dx%d, want the schedule-first 3x2 window", res.Alg.H, res.Alg.W)
	}
	if calls != 1 {
		t.Errorf("sequential sweep made %d synth calls before succeeding, want 1", calls)
	}
}

// TestClassifyOracleRaceParentCancel: a parent cancellation surfaces in
// OracleResult.Err, not as a classification, and the attempt it cut
// short is recorded as aborted.
func TestClassifyOracleRaceParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	synth := func(ctx context.Context, p *lcl.Problem, k, h, w int) (*Synthesized, error) {
		cancel() // the sweep dies under its first synthesis
		<-ctx.Done()
		return nil, ctx.Err()
	}
	res := ClassifyOracleWith(ctx, synth, lcl.VertexColoring(5, 2), 1)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("res.Err = %v, want context.Canceled", res.Err)
	}
	if res.Class != ClassUnknown {
		t.Errorf("aborted oracle claims class %v", res.Class)
	}
	if len(res.Attempts) != 1 || !res.Attempts[0].Aborted || res.Attempts[0].Success {
		t.Errorf("attempts = %+v, want exactly the cut attempt, marked Aborted", res.Attempts)
	}
}
