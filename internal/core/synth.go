package core

import (
	"context"
	"errors"
	"fmt"

	"lclgrid/internal/coloring"
	"lclgrid/internal/grid"
	"lclgrid/internal/lcl"
	"lclgrid/internal/local"
	"lclgrid/internal/sat"
	"lclgrid/internal/tiles"
)

// ErrUnsatisfiable is returned by Synthesize when no lookup table exists
// for the given power and window dimensions. Per §7 this does not prove
// the problem global — a larger k or window may succeed — which is
// exactly why classification is only one-sided.
var ErrUnsatisfiable = errors.New("core: no normal-form table for these parameters")

// ErrTorusTooSmall is returned by Synthesized.Run when the torus is below
// the normal form's MinTorusSide: the window-plus-margin regions no
// longer embed isometrically, so the lookup table does not apply. The
// problem itself may still be solvable on the torus by other means (the
// Θ(n) baseline).
var ErrTorusTooSmall = errors.New("core: torus too small for this normal form")

// TorusTooSmallError builds the canonical ErrTorusTooSmall-wrapping
// error for a shape — shared by the pre-synthesis fail-fast check and
// Synthesized.Run so the message cannot drift between them.
func TorusTooSmallError(k, h, w int) error {
	return fmt.Errorf("%w: side must be at least %d for k=%d, %dx%d windows", ErrTorusTooSmall, MinTorusSideFor(k, h, w), k, h, w)
}

// ErrNotATile is returned when a normal form meets an anchor window that
// is not one of its tiles. On a torus of at least MinTorusSide with a
// valid anchor set every window is a tile, so this marks a fault in S_k,
// in A′ or in the table itself (say, a corrupt cache record), never a
// property of the problem or the request.
var ErrNotATile = errors.New("core: observed window is not a tile")

// IsContextError reports whether err is a context cancellation or
// deadline expiry — the predicate the singleflight cache, the oracle and
// the solver adapters all share to recognise an aborted (as opposed to
// failed) operation.
func IsContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Synthesized is a synthesized normal-form algorithm A = A' ∘ S_k for an
// LCL problem on 2-dimensional grids: anchors are an MIS of G^(k), and
// Table maps the h×w anchor window around a node (the node sits at
// window position (OffR, OffC)) to its output label.
type Synthesized struct {
	Problem *lcl.Problem
	K       int
	H, W    int
	// OffR, OffC is the node's position inside its window.
	OffR, OffC int
	Graph      *TileGraph
	// Table[tileIndex] = output label.
	Table []int
	// SolverStats records the statistics of the successful SAT call.
	SolverStats sat.Stats
}

// DefaultWindow returns the window dimensions used by the paper's
// experiments for a given power: h = 2k+1 rows, w = max(2, 2k-1) columns
// (3×2 for k = 1, 7×5 for k = 3).
func DefaultWindow(k int) (h, w int) {
	h = 2*k + 1
	w = 2*k - 1
	if w < 2 {
		w = 2
	}
	return h, w
}

// Synthesize searches for a normal-form lookup table for problem p with
// anchor power k and window dimensions h×w, following §7: it builds the
// neighbourhood graph of tiles and solves the induced constraint
// satisfaction problem with the CDCL SAT solver. The problem must be
// 2-dimensional. Cancelling ctx (or letting its deadline expire) aborts
// an in-flight SAT search promptly; the context's error is returned
// unwrapped so callers can detect it with errors.Is. It is BuildTileGraph
// followed by SynthesizeOn.
func Synthesize(ctx context.Context, p *lcl.Problem, k, h, w int) (*Synthesized, error) {
	if err := checkDims(p); err != nil {
		return nil, err
	}
	if k < 1 || h < 1 || w < 1 {
		// These parameters arrive from the wire (SolveRequest.Power/H/W);
		// reject them here rather than reaching the tile enumerator's
		// panic.
		return nil, fmt.Errorf("core: synthesis parameters must be positive, got k=%d window %dx%d", k, h, w)
	}
	tg, err := BuildTileGraph(ctx, k, h, w)
	if err != nil {
		return nil, err
	}
	return SynthesizeOn(ctx, p, tg)
}

// SynthesizeOn is the problem-dependent half of Synthesize: it encodes
// the tile CSP of p over the tile graph tg (built by BuildTileGraph) in
// a fresh solver, solves it and extracts the lookup table. The graph
// depends only on its shape
// (tg.K, tg.H, tg.W), so one graph may serve every problem of that shape;
// SynthesizeOn only reads it, and the returned algorithm points at it.
// Cancellation and errors are as for Synthesize.
func SynthesizeOn(ctx context.Context, p *lcl.Problem, tg *TileGraph) (*Synthesized, error) {
	if err := checkDims(p); err != nil {
		return nil, err
	}
	table, stats, err := solveTileCSP(ctx, p, tg)
	if err != nil {
		return nil, err
	}
	return &Synthesized{
		Problem:     p,
		K:           tg.K,
		H:           tg.H,
		W:           tg.W,
		OffR:        tg.H / 2,
		OffC:        tg.W / 2,
		Graph:       tg,
		Table:       table,
		SolverStats: stats,
	}, nil
}

// checkDims rejects problems synthesis does not cover.
func checkDims(p *lcl.Problem) error {
	if p.Dims() != 2 {
		return fmt.Errorf("core: synthesis implemented for 2-dimensional problems, %s is %d-dimensional", p.Name(), p.Dims())
	}
	return nil
}

// cspEncoding is the problem-level structure of a labelling CSP (the
// tile CSP, or the direct torus encoding of SolveGlobal): the partition
// of labels into node-valid and node-invalid, and per dimension the
// forbidden label pairs, both as a list and as the solver's pair lists.
// Precomputing it leaves no Allowed/NodeOK callback to run per edge, and
// no per-edge clause to build: the edges' clauses are a pair constraint.
type cspEncoding struct {
	kk        int
	okLabels  []int
	badLabels []int
	forb      [][][2]int // per dimension, forbidden (a, b) pairs among OK labels
	pairs     *sat.PairLists
}

func newCSPEncoding(p *lcl.Problem, dims int) *cspEncoding {
	enc := &cspEncoding{kk: p.K(), forb: make([][][2]int, dims)}
	for a := 0; a < enc.kk; a++ {
		if p.NodeOK(a) {
			enc.okLabels = append(enc.okLabels, a)
		} else {
			enc.badLabels = append(enc.badLabels, a)
		}
	}
	for dim := range enc.forb {
		for _, a := range enc.okLabels {
			for _, b := range enc.okLabels {
				if !p.Allowed(dim, a, b) {
					enc.forb[dim] = append(enc.forb[dim], [2]int{a, b})
				}
			}
		}
	}
	enc.pairs = sat.NewPairLists(enc.kk, enc.forb)
	return enc
}

// newSolver returns a solver over n nodes' labels holding the node
// clauses: variable u*kk + a is "node u outputs label a"; every node
// holds at least one valid label. At-most-one constraints are
// unnecessary because all edge constraints are negative: any chosen
// label among a node's true variables works.
func (enc *cspEncoding) newSolver(n int) *sat.Solver {
	kk := enc.kk
	s := sat.NewSolver(n * kk)
	lits := make([]sat.Lit, 0, kk)
	for u := 0; u < n; u++ {
		for _, a := range enc.badLabels {
			s.AddClause(sat.Neg(u*kk + a))
		}
		lits = lits[:0]
		for _, a := range enc.okLabels {
			lits = append(lits, sat.Pos(u*kk+a))
		}
		s.AddClause(lits...)
	}
	return s
}

// addEdges adds the edge relations of g: its self-loops as explicit
// clauses (a loop turns a forbidden (a, a) into a unit), then every
// other edge as the pair constraint.
func (enc *cspEncoding) addEdges(s *sat.Solver, g *sat.PairGraph) {
	kk := enc.kk
	for _, l := range g.Loops() {
		for _, pr := range enc.forb[l.Dim] {
			s.AddClause(sat.Neg(l.Node*kk+pr[0]), sat.Neg(l.Node*kk+pr[1]))
		}
	}
	s.AddPairConstraint(g, enc.pairs)
}

// label returns node u's label in the solver's model: its first true
// valid label, or -1.
func (enc *cspEncoding) label(s *sat.Solver, u int) int {
	for _, a := range enc.okLabels {
		if s.Value(u*enc.kk + a) {
			return a
		}
	}
	return -1
}

// newTileCSPSolver encodes the tile CSP of tg in a fresh solver. The
// relations hold across every edge of the tile graph: the west tile is
// the node and the east tile its dim-0 successor, the south tile the
// node and the north tile its dim-1 successor. A dimension's self-loops
// go in ahead of its other edges, which is their place in H's edge
// order: only the empty tile can be its own neighbour, and its joint is
// the first one enumerated.
func newTileCSPSolver(enc *cspEncoding, tg *TileGraph) *sat.Solver {
	s := enc.newSolver(tg.NumTiles())
	for _, g := range tg.adj {
		enc.addEdges(s, g)
	}
	return s
}

// extractTable reads the tile labelling out of the solver's model.
func extractTable(s *sat.Solver, enc *cspEncoding, tg *TileGraph) ([]int, error) {
	table := make([]int, tg.NumTiles())
	for t := range table {
		if table[t] = enc.label(s, t); table[t] < 0 {
			return nil, errors.New("core: SAT model leaves a tile unlabelled")
		}
	}
	return table, nil
}

// solveTileCSP encodes and solves the tile-labelling CSP for one shape in
// a fresh solver.
func solveTileCSP(ctx context.Context, p *lcl.Problem, tg *TileGraph) ([]int, sat.Stats, error) {
	enc := newCSPEncoding(p, 2)
	s := newTileCSPSolver(enc, tg)
	ok, err := s.SolveContext(ctx)
	if err != nil {
		return nil, s.Stats, err
	}
	if !ok {
		return nil, s.Stats, ErrUnsatisfiable
	}
	table, err := extractTable(s, enc, tg)
	if err != nil {
		return nil, s.Stats, err
	}
	return table, s.Stats, nil
}

// MinTorusSideFor returns the smallest torus side on which a normal form
// with anchor power k and h×w windows is guaranteed correct:
// window-plus-margin regions must embed isometrically in the plane so
// that every observed window is one of the enumerated tiles. It depends
// only on the shape, so callers can reject too-small tori before paying
// for a synthesis.
func MinTorusSideFor(k, h, w int) int {
	m := h + 1
	if w+1 > m {
		m = w + 1
	}
	return 2 * (m + 2*k)
}

// MinTorusSide returns MinTorusSideFor the algorithm's own shape.
func (s *Synthesized) MinTorusSide() int {
	return MinTorusSideFor(s.K, s.H, s.W)
}

// GatherRadius returns the radius (in grid hops) a node needs to see its
// whole anchor window: the largest L1 distance from the node's window
// position to a window corner.
func (s *Synthesized) GatherRadius() int {
	maxR := s.OffR
	if s.H-1-s.OffR > maxR {
		maxR = s.H - 1 - s.OffR
	}
	maxC := s.OffC
	if s.W-1-s.OffC > maxC {
		maxC = s.W - 1 - s.OffC
	}
	return maxR + maxC
}

// Run executes the normal-form algorithm on the torus t with the given
// identifier assignment: S_k computes the anchors in O(log* n) rounds,
// then every node reads its anchor window and outputs the table entry.
// The returned Rounds reflects the full account, including power-graph
// simulation overhead and the window gather.
func (s *Synthesized) Run(t *grid.Torus, ids []int) ([]int, *local.Rounds, error) {
	if t.Dim() != 2 {
		return nil, nil, errors.New("core: synthesized algorithms run on 2-dimensional tori")
	}
	if min := s.MinTorusSide(); t.NX() < min || t.NY() < min {
		return nil, nil, TorusTooSmallError(s.K, s.H, s.W)
	}
	rounds := &local.Rounds{}
	anchors := coloring.Anchors(t, s.K, grid.L1, ids, rounds)
	out, err := s.Apply(t, anchors)
	if err != nil {
		return nil, nil, err
	}
	rounds.Add(s.GatherRadius())
	return out, rounds, nil
}

// Apply evaluates only the constant-time component A' on a precomputed
// anchor set: every node looks up its window pattern in the table. The
// probe goes through the integer-keyed tile index (zero allocations per
// node); windows wider than 64 bits fall back to the string-keyed index.
// The cells are read through wrapped column and row tables built once
// per call, with no division per cell.
func (s *Synthesized) Apply(t *grid.Torus, anchors []bool) ([]int, error) {
	out := make([]int, t.N())
	if idx, ok := s.Graph.BitIndex(); ok {
		nx, ny := t.NX(), t.NY()
		// Window cell (r, c) of node (x, y) is (x-OffC+c, y+OffR-r):
		// column x+c of cols and row y+H-1-r of rows.
		cols := t.Wrapped(0, -s.OffC, nx+s.W-1)
		rows := t.Wrapped(1, s.OffR-s.H+1, ny+s.H-1)
		v := 0
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				var key uint64
				bit := 0
				for r := 0; r < s.H; r++ {
					row := rows[y+s.H-1-r]
					for _, col := range cols[x : x+s.W] {
						if anchors[row+col] {
							key |= 1 << bit
						}
						bit++
					}
				}
				ti, found := idx[key]
				if !found {
					return nil, notTileError(s, key, v)
				}
				out[v] = s.Table[ti]
				v++
			}
		}
		return out, nil
	}
	for v := 0; v < t.N(); v++ {
		x, y := t.XY(v)
		win := t.WindowPattern(anchors, x-s.OffC, y+s.OffR, s.H, s.W)
		key := (tiles.Pattern{H: s.H, W: s.W, Bits: win}).Key()
		ti, ok := s.Graph.Index[key]
		if !ok {
			return nil, notTileKeyError(key, v)
		}
		out[v] = s.Table[ti]
	}
	return out, nil
}

// notTileError reconstructs the human-readable pattern string from a
// packed window key for the (never expected) tile-miss error path.
func notTileError(s *Synthesized, key uint64, v int) error {
	return notTileKeyError(unpackPattern(key, s.H, s.W).Key(), v)
}

// notTileKeyError is the ErrNotATile error for the window with pattern
// key observed at node v.
func notTileKeyError(key string, v int) error {
	return fmt.Errorf("%w: %s at node %d (torus too small or anchors invalid)", ErrNotATile, key, v)
}
