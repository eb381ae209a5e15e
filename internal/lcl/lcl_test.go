package lcl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lclgrid/internal/grid"
)

func TestVertexColoringVerify(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		p := VertexColoring(k, 2)
		if p.K() != k {
			t.Fatalf("K = %d, want %d", p.K(), k)
		}
		n := 2 * k // divisible by k so the diagonal colouring closes up
		g := grid.Square(n)
		lab := make([]int, g.N())
		for v := range lab {
			x, y := g.XY(v)
			lab[v] = (x + y) % k
		}
		if err := p.Verify(g, lab); err != nil {
			t.Errorf("k=%d: diagonal colouring rejected: %v", k, err)
		}
		lab[0] = lab[g.At(1, 0)]
		if err := p.Verify(g, lab); err == nil {
			t.Errorf("k=%d: monochromatic edge accepted", k)
		}
	}
}

func TestVertexColoringNoConstantSolutions(t *testing.T) {
	if got := VertexColoring(4, 2).ConstantSolutions(); got != nil {
		t.Errorf("colouring should have no constant solutions, got %v", got)
	}
}

func TestIndependentSetTrivial(t *testing.T) {
	p := IndependentSet(2)
	cs := p.ConstantSolutions()
	if len(cs) != 1 || p.Label(cs[0]) != "out" {
		t.Errorf("ConstantSolutions = %v", cs)
	}
	g := grid.Square(5)
	if err := p.Verify(g, make([]int, g.N())); err != nil {
		t.Errorf("all-out rejected: %v", err)
	}
}

func TestXOrientationInputOrientationIsTrivialFor2(t *testing.T) {
	// Thm 22: the problem is O(1) when 2 ∈ X — the consistent input
	// orientation solves it; that corresponds to a constant label.
	p := XOrientation([]int{2}, 2)
	if len(p.ConstantSolutions()) == 0 {
		t.Fatal("X={2} should admit a constant solution")
	}
	g := grid.Square(4)
	o := NewOrientation(g)
	lab, err := o.ToLabels(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(g, lab); err != nil {
		t.Errorf("input orientation rejected: %v", err)
	}
}

func TestXOrientationLabelCounts(t *testing.T) {
	if got := XOrientation([]int{0, 1, 2, 3, 4}, 2).K(); got != 16 {
		t.Errorf("full X label count = %d, want 16", got)
	}
	if got := XOrientation([]int{0}, 2).K(); got != 1 {
		t.Errorf("X={0} label count = %d, want 1", got)
	}
	if got := XOrientation([]int{1, 3}, 2).K(); got != 8 {
		t.Errorf("X={1,3} label count = %d, want 8", got)
	}
}

func TestXOrientationRoundTrip(t *testing.T) {
	p := XOrientation([]int{0, 1, 2, 3, 4}, 2)
	g := grid.Square(4)
	o := NewOrientation(g)
	// Flip a few edges.
	o.Out[0][g.At(1, 1)] = false
	o.Out[1][g.At(2, 3)] = false
	lab, err := o.ToLabels(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(g, lab); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	back := OrientationFromLabels(p, g, lab)
	for i := 0; i < 2; i++ {
		for v := 0; v < g.N(); v++ {
			if back.Out[i][v] != o.Out[i][v] {
				t.Fatalf("orientation round trip mismatch at dim %d node %d", i, v)
			}
		}
	}
}

func TestOrientationInDegreeSum(t *testing.T) {
	g := grid.Square(5)
	o := NewOrientation(g)
	o.Out[0][3] = false
	o.Out[1][7] = false
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += o.InDegree(v)
	}
	if sum != 2*g.N() { // one in-degree unit per edge endpoint orientation: #edges = 2n²
		t.Errorf("total in-degree = %d, want %d", sum, 2*g.N())
	}
}

func TestOrientationVerifyX(t *testing.T) {
	g := grid.Square(4)
	o := NewOrientation(g)
	if err := o.VerifyX([]int{2}); err != nil {
		t.Errorf("input orientation should have in-degree 2 everywhere: %v", err)
	}
	if err := o.VerifyX([]int{0, 4}); err == nil {
		t.Error("expected X violation")
	}
}

func TestEdgeColoringLabelCount(t *testing.T) {
	if got := EdgeColoring(5, 2).K(); got != 120 {
		t.Errorf("edge 5-colouring labels = %d, want 120", got)
	}
	if got := EdgeColoring(4, 2).K(); got != 24 {
		t.Errorf("edge 4-colouring labels = %d, want 24", got)
	}
	if got := EdgeColoring(3, 1).K(); got != 6 {
		t.Errorf("1-D edge 3-colouring labels = %d, want 6", got)
	}
}

func TestEdgeColoringFourColorsEvenTorus(t *testing.T) {
	p := EdgeColoring(4, 2)
	g := grid.Square(6)
	e := NewEdgeColors(g)
	for v := 0; v < g.N(); v++ {
		x, y := g.XY(v)
		e.C[0][v] = x % 2
		e.C[1][v] = 2 + y%2
	}
	if err := e.VerifyProper(4); err != nil {
		t.Fatalf("striped colouring improper: %v", err)
	}
	lab, err := e.ToLabels(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(g, lab); err != nil {
		t.Errorf("SFT verify rejected proper colouring: %v", err)
	}
	// Break one edge: duplicate colour at a node.
	e.C[0][0] = e.C[1][0]
	if err := e.VerifyProper(4); err == nil {
		t.Error("expected improper colouring to be rejected")
	}
	if _, err := e.ToLabels(p); err == nil {
		t.Error("expected encoding of improper colouring to fail")
	}
}

func TestMISEncodeVerify(t *testing.T) {
	p := MIS(2)
	if p.K() != 16 {
		t.Fatalf("MIS labels = %d, want 16", p.K())
	}
	g := grid.Square(5)
	set := greedyMIS(g)
	lab, err := MISToLabels(p, g, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(g, lab); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	back := SetFromMISLabels(p, lab)
	for v := range set {
		if back[v] != set[v] {
			t.Fatal("MIS round trip mismatch")
		}
	}
	// Remove one member: some node becomes undominated or a claim false.
	for v := range set {
		if set[v] {
			bad := append([]bool(nil), set...)
			bad[v] = false
			if lab2, err := MISToLabels(p, g, bad); err == nil {
				if err := p.Verify(g, lab2); err == nil {
					t.Fatal("non-maximal set passed verification")
				}
			}
			break
		}
	}
}

func greedyMIS(g *grid.Torus) []bool {
	set := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		ok := true
		for p := 0; p < g.Degree(v); p++ {
			if set[g.Neighbor(v, p)] {
				ok = false
				break
			}
		}
		if ok {
			set[v] = true
		}
	}
	return set
}

func TestMaximalMatchingVerify(t *testing.T) {
	p := MaximalMatching(2)
	if p.K() != 5 {
		t.Fatalf("matching labels = %d, want 5", p.K())
	}
	g := grid.Square(4)
	// Perfect matching along x: even x matched east, odd x matched west.
	lab := make([]int, g.N())
	east := p.LabelIndex("matched:E")
	west := p.LabelIndex("matched:W")
	if east < 0 || west < 0 {
		t.Fatal("label names missing")
	}
	for v := 0; v < g.N(); v++ {
		x, _ := g.XY(v)
		if x%2 == 0 {
			lab[v] = east
		} else {
			lab[v] = west
		}
	}
	if err := p.Verify(g, lab); err != nil {
		t.Fatalf("perfect matching rejected: %v", err)
	}
	// All unmatched: violates maximality.
	un := p.LabelIndex("unmatched")
	for v := range lab {
		lab[v] = un
	}
	if err := p.Verify(g, lab); err == nil {
		t.Error("all-unmatched accepted")
	}
}

func TestVerifyDimensionMismatch(t *testing.T) {
	p := VertexColoring(3, 2)
	c := grid.Cycle(5)
	if err := p.Verify(c, make([]int, 5)); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestVerifyBadInput(t *testing.T) {
	p := VertexColoring(3, 2)
	g := grid.Square(3)
	if err := p.Verify(g, make([]int, 2)); err == nil {
		t.Error("expected length mismatch error")
	}
	lab := make([]int, g.N())
	lab[0] = 99
	if err := p.Verify(g, lab); err == nil || !strings.Contains(err.Error(), "outside alphabet") {
		t.Errorf("expected alphabet error, got %v", err)
	}
}

func TestLabelIndex(t *testing.T) {
	p := VertexColoring(3, 2)
	if p.LabelIndex("2") != 1 {
		t.Error("LabelIndex wrong")
	}
	if p.LabelIndex("nope") != -1 {
		t.Error("missing label should give -1")
	}
}

func TestPortName(t *testing.T) {
	if PortName(2, 0) != "E" || PortName(2, 3) != "S" {
		t.Error("2-D port names wrong")
	}
	if PortName(3, 4) != "2+" || PortName(3, 5) != "2-" {
		t.Error("generic port names wrong")
	}
}

func TestProblemString(t *testing.T) {
	s := VertexColoring(4, 2).String()
	if !strings.Contains(s, "4-colouring") || !strings.Contains(s, "4 labels") {
		t.Errorf("String = %q", s)
	}
}

// TestVerifyMatchesMoveWalk: Verify's odometer walk reports the same
// first violation, with the same message, as a walk that finds every +1
// neighbour with Torus.Move, on 1-, 2- and 3-dimensional tori with sides
// down to 1 (where the +1 neighbour is the node itself).
func TestVerifyMatchesMoveWalk(t *testing.T) {
	reference := func(p *Problem, g *grid.Torus, lab []int) error {
		for v := 0; v < g.N(); v++ {
			a := lab[v]
			if a < 0 || a >= p.K() {
				return fmt.Errorf("lcl: node %d has label %d outside alphabet", v, a)
			}
			for i := 0; i < g.Dim(); i++ {
				u := g.Move(v, i, 1)
				b := lab[u]
				if b < 0 || b >= p.K() {
					return fmt.Errorf("lcl: node %d has label %d outside alphabet", u, b)
				}
				if !p.Allowed(i, a, b) {
					return fmt.Errorf("lcl: edge %d->%d (dim %d) violates %s: %s | %s",
						v, u, i, p.Name(), p.Label(a), p.Label(b))
				}
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	for _, sides := range [][]int{{7}, {1}, {5, 4}, {1, 6}, {3, 1}, {3, 4, 2}, {2, 1, 3}} {
		g := grid.MustNew(sides...)
		p := VertexColoring(40, len(sides))
		for trial := 0; trial < 200; trial++ {
			lab := make([]int, g.N())
			for v := range lab {
				lab[v] = rng.Intn(p.K() + 1) // K() itself is outside the alphabet
			}
			got, want := p.Verify(g, lab), reference(p, g, lab)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("sides %v trial %d: Verify = %v, Move walk = %v", sides, trial, got, want)
			}
		}
	}
}
