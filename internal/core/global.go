package core

import (
	"context"

	"lclgrid/internal/grid"
	"lclgrid/internal/lcl"
	"lclgrid/internal/local"
	"lclgrid/internal/sat"
)

// Diameter returns the diameter of the torus (the number of rounds a
// gather-everything algorithm needs): the sum over dimensions of
// floor(side/2) for the L1 metric.
func Diameter(t *grid.Torus) int {
	d := 0
	for i := 0; i < t.Dim(); i++ {
		d += t.Side(i) / 2
	}
	return d
}

// SolveGlobal decides whether the LCL problem p is solvable on the torus
// t and returns a solution if so. It encodes the tiling directly as SAT
// (one variable per node and label) — this is the Θ(n) brute-force
// baseline of §7 ("gather the entire input at a single node and solve the
// problem globally") as well as the (un)solvability certificate generator
// used for global problems such as 2-colouring on odd tori. A cancelled
// ctx aborts the SAT search and surfaces the context's error; in that
// case the solvability answer is meaningless and must be ignored.
func SolveGlobal(ctx context.Context, p *lcl.Problem, t *grid.Torus) ([]int, bool, error) {
	enc := newCSPEncoding(p, t.Dim())
	s := newGlobalSolver(enc, t)
	ok, err := s.SolveContext(ctx)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	out := make([]int, t.N())
	for node := range out {
		out[node] = enc.label(s, node)
	}
	return out, true, nil
}

// newGlobalSolver encodes the labelling CSP of the torus t itself: one
// node per torus node and an edge from every node to its successor in
// each dimension, node-major and dimension-minor. Sides of 1 make those
// edges self-loops and sides of 2 parallel edges.
func newGlobalSolver(enc *cspEncoding, t *grid.Torus) *sat.Solver {
	s := enc.newSolver(t.N())
	enc.addEdges(s, sat.NewPairGraph(t.N(), func(add func(u, v, dim int)) {
		for node := 0; node < t.N(); node++ {
			for dim := 0; dim < t.Dim(); dim++ {
				add(node, t.Move(node, dim, 1), dim)
			}
		}
	}))
	return s
}

// SolveGlobalWithRounds is SolveGlobal with the round accounting of the
// brute-force LOCAL algorithm it models: every node gathers the whole
// labelled torus (Diameter rounds) and deterministically solves the
// tiling, so all nodes agree on the same solution.
func SolveGlobalWithRounds(ctx context.Context, p *lcl.Problem, t *grid.Torus) ([]int, bool, *local.Rounds, error) {
	rounds := &local.Rounds{}
	rounds.Add(Diameter(t))
	out, ok, err := SolveGlobal(ctx, p, t)
	return out, ok, rounds, err
}
