package sat

import (
	"fmt"
	"math/bits"
)

// Forbidden-pair constraints. A CSP whose variables are "node u takes
// label a" (variable u·kk+a) and whose constraints forbid label pairs
// across the edges of a graph — the tile CSP of §7 and the direct torus
// encoding of the Θ(n) baseline — has one binary clause
// ¬(u·kk+a) ∨ ¬(v·kk+b) per edge and forbidden pair. The solver holds
// these clauses implicitly: a PairGraph (the graph, shareable by every
// problem over it) and a PairLists (the problem's forbidden pairs, whose
// size depends on the labels and not on the graph) together imply, for
// a true literal u·kk+a, the negation of every neighbour's label that
// the pair lists forbid beside a.

// pairTagBits is the width of an adjacency entry's tag: 2·dim + side.
const pairTagBits = 4

// maxPairDims is the largest number of dimensions a PairGraph supports.
const maxPairDims = 1 << (pairTagBits - 1)

// maxPairNodes bounds a PairGraph's node count so that an entry's
// neighbour fits beside its tag in 32 bits.
const maxPairNodes = 1 << (32 - pairTagBits)

// PairLoop is an edge from a node to itself. Such an edge turns a
// forbidden pair (a, a) into a unit clause, so a PairGraph leaves it out
// of its adjacency and reports it for the caller to add as clauses.
type PairLoop struct{ Node, Dim int }

// PairGraph is an immutable adjacency over nodes 0..n-1 whose edges are
// given in clause order: edge i joins node u (side 0, the first label of
// a forbidden pair) to node v (side 1, the second) in some dimension.
// Node u's entries list its edges in that order, so the literals a
// constraint implies come in exactly the order the corresponding binary
// clauses would have been added. Parallel edges are kept; self-loops
// are left out (see Loops). A PairGraph is only read after
// construction, so one may back any number of solvers concurrently.
type PairGraph struct {
	n     int
	start []int32  // node u's entries are adj[start[u]:start[u+1]]
	adj   []uint32 // neighbour<<pairTagBits | 2·dim + side
	edges []int    // per dimension, the number of non-loop edges
	loops []PairLoop
}

// NewPairGraph builds the adjacency of n nodes. each must enumerate the
// edges, in clause order, by calling add(u, v, dim); it is called twice
// (once to size the arrays, once to fill them) and must produce the
// same sequence both times.
func NewPairGraph(n int, each func(add func(u, v, dim int))) *PairGraph {
	if n < 0 || n >= maxPairNodes {
		panic(fmt.Sprintf("sat: pair graph of %d nodes exceeds %d", n, maxPairNodes))
	}
	g := &PairGraph{n: n, start: make([]int32, n+1)}
	each(func(u, v, dim int) {
		if u < 0 || u >= n || v < 0 || v >= n || dim < 0 || dim >= maxPairDims {
			panic(fmt.Sprintf("sat: pair edge (%d, %d) in dimension %d out of range", u, v, dim))
		}
		for len(g.edges) <= dim {
			g.edges = append(g.edges, 0)
		}
		if u == v {
			g.loops = append(g.loops, PairLoop{u, dim})
			return
		}
		g.edges[dim]++
		g.start[u+1]++
		g.start[v+1]++
	})
	for u := 0; u < n; u++ {
		g.start[u+1] += g.start[u]
	}
	g.adj = make([]uint32, g.start[n])
	fill := append([]int32(nil), g.start[:n]...)
	each(func(u, v, dim int) {
		if u == v {
			return
		}
		tag := uint32(2 * dim)
		g.adj[fill[u]] = uint32(v)<<pairTagBits | tag
		fill[u]++
		g.adj[fill[v]] = uint32(u)<<pairTagBits | tag | 1
		fill[v]++
	})
	return g
}

// Loops returns the self-loop edges the adjacency leaves out, in edge
// order.
func (g *PairGraph) Loops() []PairLoop { return g.loops }

// PairLists is the per-problem half of a pair constraint: over kk labels
// and per dimension, the forbidden pairs (a, b) — a at an edge's side-0
// end and b at its side-1 end may not both hold. For each label and
// adjacency tag (dimension and side) it holds the opposite labels in
// pair order.
type PairLists struct {
	kk    int
	pairs []int                       // per dimension, the number of forbidden pairs
	opp   [][1 << pairTagBits][]int32 // opp[a][2·dim+side]: labels forbidden opposite a
}

// NewPairLists builds the lists from forb[dim], the forbidden (a, b)
// pairs of each dimension in clause order. Labels must lie in 0..kk-1.
func NewPairLists(kk int, forb [][][2]int) *PairLists {
	if kk < 1 || len(forb) > maxPairDims {
		panic(fmt.Sprintf("sat: pair lists over %d labels and %d dimensions", kk, len(forb)))
	}
	l := &PairLists{kk: kk, opp: make([][1 << pairTagBits][]int32, kk)}
	for dim, prs := range forb {
		l.pairs = append(l.pairs, len(prs))
		for _, pr := range prs {
			if pr[0] < 0 || pr[0] >= kk || pr[1] < 0 || pr[1] >= kk {
				panic(fmt.Sprintf("sat: forbidden pair %v outside %d labels", pr, kk))
			}
			l.opp[pr[0]][2*dim] = append(l.opp[pr[0]][2*dim], int32(pr[1]))
			l.opp[pr[1]][2*dim+1] = append(l.opp[pr[1]][2*dim+1], int32(pr[0]))
		}
	}
	return l
}

// pairConstraint is one attached (graph, lists) pair.
type pairConstraint struct {
	g     *PairGraph
	l     *PairLists
	kk    uint64
	magic uint64 // ⌈2^64/kk⌉: v/kk is the high word of magic·v
	nVars uint64 // variables below g.n·kk belong to the constraint
}

// split returns (v/kk, v%kk) for a variable v < 2^32 with one
// multiplication.
func (c *pairConstraint) split(v uint64) (node, label uint64) {
	if c.kk == 1 {
		return v, 0
	}
	node, _ = bits.Mul64(c.magic, v)
	return node, v - node*c.kk
}

// AddPairConstraint adds, for every edge (u, v) of g in dimension d and
// every forbidden pair (a, b) of d in l, the clause ¬(u·kk+a) ∨
// ¬(v·kk+b), without storing any of them: propagation reads the implied
// literals from g and l. Edges in dimensions l has no pairs for imply
// nothing. g's self-loops are not included; the caller adds their
// clauses explicitly.
//
// The clauses count in NumClauses, and propagation visits them in edge
// order and then pair order, ahead of the binaries added with AddClause
// or learned. When no variable of the constraint is true at level 0,
// this is exactly the search that adding the same clauses one by one
// with AddClause, at this point, would give (clauses that mention a
// variable assigned at level 0 are not counted, as AddClause does not
// store them). Like AddClause, it may be called after a search and is a
// no-op on an unsatisfiable formula.
func (s *Solver) AddPairConstraint(g *PairGraph, l *PairLists) {
	if s.unsat {
		return
	}
	if g.n*l.kk > s.nVars {
		panic(fmt.Sprintf("sat: pair constraint over %d nodes × %d labels exceeds %d variables", g.n, l.kk, s.nVars))
	}
	s.backtrack(0)
	c := pairConstraint{g: g, l: l, kk: uint64(l.kk), nVars: uint64(g.n * l.kk)}
	if l.kk > 1 {
		c.magic = ^uint64(0)/c.kk + 1
	}
	for dim, n := range g.edges {
		if dim < len(l.pairs) {
			s.numProblem += n * l.pairs[dim]
		}
	}
	s.numProblem -= s.settledPairs(&c)
	s.pairs = append(s.pairs, c)
	// Literals made true at level 0 before the constraint existed have
	// already been propagated; run them through it now.
	done := s.qhead
	for i := 0; i < done; i++ {
		if p := s.trail[i]; p.Positive() && !s.propagatePairs(&s.pairs[len(s.pairs)-1], p) {
			s.unsat = true
			return
		}
	}
	if s.propagate() != conflNone {
		s.unsat = true
	}
}

// settledPairs counts the constraint's clauses that mention a variable
// assigned at level 0: the ones AddClause would have dropped or turned
// into a unit rather than stored.
func (s *Solver) settledPairs(c *pairConstraint) int {
	n := 0
	kk := int(c.kk)
	for _, p := range s.trail {
		v := uint64(p.Var())
		if v >= c.nVars {
			continue
		}
		node, label := c.split(v)
		opp := &c.l.opp[label]
		for _, e := range c.g.adj[c.g.start[node]:c.g.start[node+1]] {
			tag := e & (1<<pairTagBits - 1)
			base := int(e>>pairTagBits) * kk
			for _, b := range opp[tag] {
				// A clause with both variables assigned counts once,
				// from its side-0 end.
				if tag&1 == 0 || s.assign[base+int(b)] == lUndef {
					n++
				}
			}
		}
	}
	return n
}

// propagatePairs enqueues the literals the constraint implies from the
// true literal p. On a conflict it leaves the clause in binConfl and
// returns false.
func (s *Solver) propagatePairs(c *pairConstraint, p Lit) bool {
	v := uint64(p.Var())
	if v >= c.nVars {
		return true
	}
	node, label := c.split(v)
	kk := int(c.kk)
	opp := &c.l.opp[label]
	notP := p.Not()
	level := int32(len(s.lim))
	for _, e := range c.g.adj[c.g.start[node]:c.g.start[node+1]] {
		span := opp[e&(1<<pairTagBits-1)]
		if len(span) == 0 {
			continue
		}
		base := int(e>>pairTagBits) * kk
		for _, b := range span {
			w := base + int(b)
			switch s.assign[w] {
			case lFalse: // the implied ¬w already holds
			case lTrue:
				s.binConfl[0], s.binConfl[1] = Neg(w), notP
				return false
			default: // enqueueBin(¬w, ¬p), inlined
				s.assign[w] = lFalse
				s.level[w] = level
				s.reason[w] = reasonBin
				s.reasonLit[w] = notP
				s.trail = append(s.trail, Neg(w))
				s.Stats.Propagated++
			}
		}
	}
	return true
}
