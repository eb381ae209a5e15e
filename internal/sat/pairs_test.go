package sat

import (
	"reflect"
	"slices"
	"testing"
)

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next(mod int) int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b) % mod
}

// pairCase is a random pair-constraint instance: graphs over n nodes
// and kk labels, forbidden pairs per dimension, and extra clauses added
// before the constraints and after them (any). The clauses before are
// either negative units or long clauses and all-positive binaries: none
// of them makes a constraint variable true at level 0 or puts a stored
// binary ahead of the constraint's implications.
type pairCase struct {
	n, kk, nVars int
	graphs       [][][3]int // per graph, edges (u, v, dim) in order
	forb         [][][2]int
	before       [][]Lit
	after        [][]Lit
}

func decodePairCase(data []byte) pairCase {
	r := byteReader(data)
	c := pairCase{n: 1 + r.next(6), kk: 1 + r.next(6)}
	c.nVars = c.n*c.kk + r.next(3)
	dims := 1 + r.next(3)
	c.forb = make([][][2]int, dims)
	for d := range c.forb {
		for i := r.next(c.kk*c.kk + 1); i > 0; i-- {
			c.forb[d] = append(c.forb[d], [2]int{r.next(c.kk), r.next(c.kk)})
		}
	}
	for g := 1 + r.next(2); g > 0; g-- {
		var edges [][3]int
		for i := r.next(13); i > 0; i-- {
			edges = append(edges, [3]int{r.next(c.n), r.next(c.n), r.next(dims)})
		}
		c.graphs = append(c.graphs, edges)
	}
	lit := func() Lit {
		v := r.next(c.nVars)
		if r.next(2) == 0 {
			return Pos(v)
		}
		return Neg(v)
	}
	// Distinct variables, so that no clause before the constraints
	// shrinks to a unit.
	distinct := func(k int) []int {
		var vs []int
		for len(vs) < k {
			v := r.next(c.nVars)
			for slices.Contains(vs, v) {
				v = (v + 1) % c.nVars
			}
			vs = append(vs, v)
		}
		return vs
	}
	// Negative units make constraint clauses satisfied at level 0,
	// which neither side stores. Beside other clauses they could derive
	// a true constraint variable or a stored binary, so a case has
	// either negative units alone or the other two kinds.
	negUnits := r.next(2) == 0
	for i := r.next(5); i > 0 && c.nVars >= 3; i-- {
		switch {
		case negUnits:
			c.before = append(c.before, []Lit{Neg(r.next(c.nVars))})
		case r.next(2) == 0:
			var cl []Lit
			for _, v := range distinct(3) {
				cl = append(cl, Lit(2*v+r.next(2)))
			}
			c.before = append(c.before, cl)
		default:
			vs := distinct(2)
			c.before = append(c.before, []Lit{Pos(vs[0]), Pos(vs[1])})
		}
	}
	for i := r.next(9); i > 0; i-- {
		cl := []Lit{lit()}
		for j := r.next(3); j > 0; j-- {
			cl = append(cl, lit())
		}
		c.after = append(c.after, cl)
	}
	return c
}

// build encodes the case in a fresh solver, with the edges' clauses as
// pair constraints (implicit) or through AddClause. Self-loops are
// explicit either way, added with the clauses that follow the
// constraints.
func (c pairCase) build(implicit bool) *Solver {
	s := NewSolver(c.nVars)
	for _, cl := range c.before {
		s.AddClause(cl...)
	}
	lists := NewPairLists(c.kk, c.forb)
	var loops []PairLoop
	for _, edges := range c.graphs {
		g := NewPairGraph(c.n, func(add func(u, v, dim int)) {
			for _, e := range edges {
				add(e[0], e[1], e[2])
			}
		})
		loops = append(loops, g.Loops()...)
		if implicit {
			s.AddPairConstraint(g, lists)
			continue
		}
		for _, e := range edges {
			if e[0] == e[1] {
				continue
			}
			for _, pr := range c.forb[e[2]] {
				s.AddClause(Neg(e[0]*c.kk+pr[0]), Neg(e[1]*c.kk+pr[1]))
			}
		}
	}
	for _, l := range loops {
		for _, pr := range c.forb[l.Dim] {
			s.AddClause(Neg(l.Node*c.kk+pr[0]), Neg(l.Node*c.kk+pr[1]))
		}
	}
	for _, cl := range c.after {
		s.AddClause(cl...)
	}
	return s
}

// samePairSearch fails unless the two solvers hold the same clause count
// and, solved, give the same verdict, model and statistics.
func samePairSearch(t *testing.T, c pairCase, imp, exp *Solver, stage string) {
	t.Helper()
	if imp.NumClauses() != exp.NumClauses() {
		t.Fatalf("%s: NumClauses implicit=%d explicit=%d (%+v)", stage, imp.NumClauses(), exp.NumClauses(), c)
	}
	gotI, gotE := imp.Solve(), exp.Solve()
	if gotI != gotE {
		t.Fatalf("%s: verdict implicit=%v explicit=%v (%+v)", stage, gotI, gotE, c)
	}
	if !reflect.DeepEqual(imp.Stats, exp.Stats) {
		t.Fatalf("%s: stats implicit=%+v explicit=%+v (%+v)", stage, imp.Stats, exp.Stats, c)
	}
	if gotI {
		for v := 0; v < c.nVars; v++ {
			if imp.Value(v) != exp.Value(v) {
				t.Fatalf("%s: models differ at x%d (%+v)", stage, v, c)
			}
		}
	}
}

// FuzzPairConstraint differentially fuzzes the implicit forbidden-pair
// constraint against the same clauses added one by one: on random small
// graphs with self-loops and parallel edges, 1 to 6 labels, random
// forbidden pairs and extra clauses, both must reach the same verdict
// and model with identical statistics — the same search — and again
// after a unit clause is added to the searched solvers.
func FuzzPairConstraint(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 2, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{5, 2, 1, 1, 4, 0, 1, 1, 0, 2, 1, 1, 6, 0, 1, 0, 1, 2, 0, 2, 2, 1, 3, 3, 0, 0, 0, 0, 4, 1, 0, 3})
	f.Add([]byte{3, 3, 0, 2, 9, 0, 1, 1, 0, 2, 2, 3, 3, 9, 0, 1, 0, 1, 2, 0, 2, 0, 1, 1, 1, 0, 2, 2, 0, 0, 0, 1, 5})
	f.Add([]byte{4, 5, 2, 1, 30, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 12, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 0, 0, 1, 2, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePairCase(data)
		imp, exp := c.build(true), c.build(false)
		samePairSearch(t, c, imp, exp, "solve")
		if len(data) == 0 {
			return
		}
		unit := Lit(int(data[len(data)-1]) % (2 * c.nVars))
		imp.AddClause(unit)
		exp.AddClause(unit)
		samePairSearch(t, c, imp, exp, "re-solve")
	})
}

// TestPairGraphLoopsAndOrder checks the adjacency's bookkeeping: loops
// are reported in edge order and left out, parallel edges are kept, and
// a node's entries follow edge order.
func TestPairGraphLoopsAndOrder(t *testing.T) {
	edges := [][3]int{{0, 1, 0}, {1, 1, 1}, {1, 0, 0}, {2, 0, 1}, {0, 0, 0}}
	g := NewPairGraph(3, func(add func(u, v, dim int)) {
		for _, e := range edges {
			add(e[0], e[1], e[2])
		}
	})
	if want := []PairLoop{{1, 1}, {0, 0}}; !reflect.DeepEqual(g.Loops(), want) {
		t.Errorf("loops = %v, want %v", g.Loops(), want)
	}
	// Node 0: side 0 of edge 0, side 1 of edge 2, side 1 of edge 3.
	want := []uint32{1<<pairTagBits | 0, 1<<pairTagBits | 1, 2<<pairTagBits | 2 | 1}
	if got := g.adj[g.start[0]:g.start[1]]; !reflect.DeepEqual(got, want) {
		t.Errorf("node 0 entries = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(g.edges, []int{2, 1}) {
		t.Errorf("edges per dimension = %v, want [2 1]", g.edges)
	}
}
