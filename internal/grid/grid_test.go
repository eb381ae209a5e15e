package grid

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no dims should fail")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("New(4, 0) should fail")
	}
	if _, err := New(3, 4, 5); err != nil {
		t.Errorf("New(3,4,5) failed: %v", err)
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{7}, {4, 6}, {3, 5, 4}, {2, 3, 2, 3}} {
		g := MustNew(dims...)
		for v := 0; v < g.N(); v++ {
			c := g.Coords(v)
			if got := g.Index(c...); got != v {
				t.Fatalf("dims %v: Index(Coords(%d)) = %d", dims, v, got)
			}
		}
	}
}

func TestIndexModularReduction(t *testing.T) {
	g := Square(5)
	if g.Index(-1, 0) != g.Index(4, 0) {
		t.Error("negative x not wrapped")
	}
	if g.Index(7, 12) != g.Index(2, 2) {
		t.Error("overflow not wrapped")
	}
}

func TestNeighborPortsInverse(t *testing.T) {
	g := MustNew(5, 7, 3)
	for v := 0; v < g.N(); v++ {
		for d := 0; d < g.Dim(); d++ {
			plus, minus := 2*d, 2*d+1
			if g.Neighbor(g.Neighbor(v, plus), minus) != v {
				t.Fatalf("ports %d/%d not inverse at v=%d", plus, minus, v)
			}
		}
	}
}

func TestNeighbor2DDirections(t *testing.T) {
	g := Square(6)
	v := g.At(2, 3)
	if x, y := g.XY(g.Neighbor(v, East)); x != 3 || y != 3 {
		t.Errorf("East(2,3) = (%d,%d)", x, y)
	}
	if x, y := g.XY(g.Neighbor(v, West)); x != 1 || y != 3 {
		t.Errorf("West(2,3) = (%d,%d)", x, y)
	}
	if x, y := g.XY(g.Neighbor(v, North)); x != 2 || y != 4 {
		t.Errorf("North(2,3) = (%d,%d)", x, y)
	}
	if x, y := g.XY(g.Neighbor(v, South)); x != 2 || y != 2 {
		t.Errorf("South(2,3) = (%d,%d)", x, y)
	}
}

func TestDistSymmetricAndTriangle(t *testing.T) {
	g := MustNew(6, 5)
	for _, norm := range []Norm{L1, LInf} {
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.Dist(u, v, norm) != g.Dist(v, u, norm) {
					t.Fatalf("dist not symmetric (%v)", norm)
				}
			}
		}
		f := func(a, b, c uint8) bool {
			u, v, w := int(a)%g.N(), int(b)%g.N(), int(c)%g.N()
			return g.Dist(u, w, norm) <= g.Dist(u, v, norm)+g.Dist(v, w, norm)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("triangle inequality (%v): %v", norm, err)
		}
	}
}

func TestDistMatchesBFS(t *testing.T) {
	// L1 distance on the torus must equal graph (hop) distance.
	g := MustNew(5, 4)
	src := g.At(1, 2)
	dist := bfs(g, src)
	for v := 0; v < g.N(); v++ {
		if dist[v] != g.Dist(src, v, L1) {
			t.Fatalf("node %d: bfs=%d l1=%d", v, dist[v], g.Dist(src, v, L1))
		}
	}
}

func bfs(g *Torus, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Degree(v); p++ {
			u := g.Neighbor(v, p)
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func TestBallOffsetsCounts(t *testing.T) {
	g := Square(50) // large enough that no wrapping occurs for small k
	tests := []struct {
		k    int
		norm Norm
		want int // ball size minus centre
	}{
		{1, L1, 4},
		{2, L1, 12},
		{3, L1, 24}, // 2k(k+1) in 2D
		{1, LInf, 8},
		{2, LInf, 24}, // (2k+1)^2 - 1
	}
	for _, tt := range tests {
		got := len(g.BallOffsets(tt.k, tt.norm))
		if got != tt.want {
			t.Errorf("BallOffsets(k=%d, %v) = %d offsets, want %d", tt.k, tt.norm, got, tt.want)
		}
	}
}

func TestBallOffsetsWrapDedup(t *testing.T) {
	// On a 3×3 torus the L1 ball of radius 2 covers everything: 8 offsets.
	g := Square(3)
	if got := len(g.BallOffsets(2, L1)); got != 8 {
		t.Errorf("wrapped ball offsets = %d, want 8", got)
	}
}

func TestBallOffsetsMatchDist(t *testing.T) {
	g := MustNew(7, 6)
	for _, norm := range []Norm{L1, LInf} {
		for k := 1; k <= 3; k++ {
			offs := g.BallOffsets(k, norm)
			v := g.At(3, 2)
			inBall := make(map[int]bool)
			for _, off := range offs {
				inBall[g.ShiftVec(v, off)] = true
			}
			for u := 0; u < g.N(); u++ {
				want := u != v && g.Dist(u, v, norm) <= k
				if inBall[u] != want {
					t.Fatalf("norm %v k=%d node %d: inBall=%v want %v", norm, k, u, inBall[u], want)
				}
			}
		}
	}
}

func TestPowerGraph(t *testing.T) {
	g := Square(10)
	p := NewPower(g, 2, L1)
	if p.N() != 100 {
		t.Fatal("power N wrong")
	}
	if p.Degree(0) != 12 {
		t.Fatalf("power degree = %d, want 12", p.Degree(0))
	}
	v := g.At(4, 4)
	for i := 0; i < p.Degree(v); i++ {
		u := p.Neighbor(v, i)
		if d := g.Dist(u, v, L1); d < 1 || d > 2 {
			t.Fatalf("power neighbor at distance %d", d)
		}
	}
	if p.SimulationOverhead() != 2 {
		t.Error("L1 power overhead should be k")
	}
	pinf := NewPower(g, 3, LInf)
	if pinf.SimulationOverhead() != 6 {
		t.Error("LInf power overhead should be k*d")
	}
}

func TestWindowPattern(t *testing.T) {
	g := Square(8)
	in := make([]bool, g.N())
	in[g.At(2, 5)] = true // should appear at row 0, col 0 for window NW=(2,5)
	in[g.At(3, 4)] = true // row 1, col 1
	in[g.At(4, 3)] = true // row 2, col 2
	w := g.WindowPattern(in, 2, 5, 3, 3)
	want := []bool{
		true, false, false,
		false, true, false,
		false, false, true,
	}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("window cell %d = %v, want %v (window %v)", i, w[i], want[i], w)
		}
	}
}

func TestWindowPatternWraps(t *testing.T) {
	g := Square(4)
	in := make([]bool, g.N())
	in[g.At(0, 0)] = true
	// Window with NW corner at (3, 0): cell (r=0,c=1) is (0, 0).
	w := g.WindowPattern(in, 3, 0, 2, 2)
	if !w[1] {
		t.Errorf("expected wrap-around hit at row 0 col 1: %v", w)
	}
}

func TestMoveLargeDelta(t *testing.T) {
	g := Square(5)
	v := g.At(1, 1)
	if g.Move(v, 0, 7) != g.At(3, 1) {
		t.Error("Move +7 mod 5 failed")
	}
	if g.Move(v, 1, -6) != g.At(1, 0) {
		t.Error("Move -6 mod 5 failed")
	}
}

func TestCycle(t *testing.T) {
	c := Cycle(5)
	if c.Dim() != 1 || c.N() != 5 {
		t.Fatal("cycle shape wrong")
	}
	if c.Neighbor(4, 0) != 0 || c.Neighbor(0, 1) != 4 {
		t.Error("cycle successor/predecessor wrong")
	}
}

// TestPowerNeighborMatchesShiftVec: the table-driven Power.Neighbor
// reaches exactly the node ShiftVec does for every node and offset, on
// 1-, 2- and 3-dimensional tori under both norms, including sides below
// 2k+1 where the ball wraps.
func TestPowerNeighborMatchesShiftVec(t *testing.T) {
	for _, sides := range [][]int{{9}, {2}, {6, 5}, {3, 7}, {1, 4}, {4, 3, 5}, {2, 2, 3}} {
		g := MustNew(sides...)
		for _, norm := range []Norm{L1, LInf} {
			for k := 1; k <= 3; k++ {
				p := NewPower(g, k, norm)
				offs := g.BallOffsets(k, norm)
				for v := 0; v < g.N(); v++ {
					if p.Degree(v) != len(offs) {
						t.Fatalf("sides %v %v k=%d: degree %d, want %d", sides, norm, k, p.Degree(v), len(offs))
					}
					for i, off := range offs {
						if got, want := p.Neighbor(v, i), g.ShiftVec(v, off); got != want {
							t.Fatalf("sides %v %v k=%d: Neighbor(%d, %d) = %d, ShiftVec = %d", sides, norm, k, v, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBallOffsetsOrder: BallOffsets lists the offsets in the order of a
// lexicographic walk over [-k, k]^d, keeping the first offset to reach
// each node, on tori where the ball does and does not wrap.
func TestBallOffsetsOrder(t *testing.T) {
	for _, sides := range [][]int{{11}, {3}, {9, 9}, {4, 3}, {2, 5, 3}} {
		g := MustNew(sides...)
		for _, norm := range []Norm{L1, LInf} {
			for k := 0; k <= 3; k++ {
				var want [][]int
				reached := map[int]bool{0: true}
				off := make([]int, len(sides))
				var walk func(dim int)
				walk = func(dim int) {
					if dim == len(sides) {
						l1, linf := 0, 0
						for _, o := range off {
							a := max(o, -o)
							l1, linf = l1+a, max(linf, a)
						}
						if (norm == L1 && l1 > k) || (norm == LInf && linf > k) {
							return
						}
						if u := g.ShiftVec(0, off); !reached[u] {
							reached[u] = true
							want = append(want, append([]int(nil), off...))
						}
						return
					}
					for o := -k; o <= k; o++ {
						off[dim] = o
						walk(dim + 1)
					}
					off[dim] = 0
				}
				walk(0)
				if got := g.BallOffsets(k, norm); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("sides %v %v k=%d: BallOffsets = %v, want %v", sides, norm, k, got, want)
				}
			}
		}
	}
}

// TestWrapped: every Wrapped entry is the index of its coordinate
// reduced onto the torus, for windows starting below 0, inside the
// side and past it.
func TestWrapped(t *testing.T) {
	g := MustNew(4, 3)
	for dim := 0; dim < 2; dim++ {
		for lo := -7; lo <= 7; lo++ {
			got := g.Wrapped(dim, lo, 11)
			for i, idx := range got {
				c := lo + i
				want := make([]int, 2)
				want[dim] = c
				if w := g.Index(want...); idx != w {
					t.Fatalf("Wrapped(%d, %d, 11)[%d] = %d, want %d", dim, lo, i, idx, w)
				}
			}
		}
	}
}
