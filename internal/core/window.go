package core

import (
	"context"
	"fmt"
	"math/bits"

	"lclgrid/internal/coloring"
	"lclgrid/internal/grid"
	"lclgrid/internal/tiles"
)

// This file implements coordinate-addressed (windowed) evaluation of a
// synthesized normal form A = A' ∘ S_k: labeling an arbitrary rectangle
// of a torus without ever materialising O(n) state. It works because
// every ingredient of the normal form is a local function of node
// coordinates:
//
//   - identifiers come from a deterministic coordinate-addressable
//     assignment (AffineID), so id(v) is O(1);
//   - each Linial colour-reduction level is a function of the previous
//     level on the node's k-ball, so colour(level, v) is computable by
//     bounded recursion (the schedule is replayed with
//     coloring.LinialSchedule / coloring.LinialChooser, so values agree
//     with the full-graph LinialColor exactly);
//   - MIS membership after the colour-class sweep satisfies
//     member(v) ⇔ no power-neighbour u with colour(u) < colour(v) is a
//     member — same-coloured neighbours cannot exist under a proper
//     colouring, so the sweep order inside a colour class is irrelevant
//     and the recursion (over strictly decreasing colours) terminates;
//   - the output label is the table entry of the h×w anchor window.
//
// All recursions are memoized per evaluator, so the state is
// O(window + halo): the halo is the set of nodes outside the requested
// rectangle whose colours or membership the recursion touches, bounded
// by k·(levels + finalColours) in each direction.

// WindowStats describes the work a windowed evaluation performed; all
// counts are cumulative across LabelRect calls (and survive Reset).
type WindowStats struct {
	// WindowNodes is the number of labels produced.
	WindowNodes int `json:"window_nodes"`
	// AnchorNodes is the number of distinct nodes whose MIS membership
	// was evaluated (zero in lattice mode, where membership is a
	// closed-form test).
	AnchorNodes int `json:"anchor_nodes"`
	// ColorNodes is the number of memoized colour cells computed across
	// all Linial levels.
	ColorNodes int `json:"color_nodes"`
	// HaloNodes is the number of membership evaluations at nodes outside
	// the requested rectangle.
	HaloNodes int `json:"halo_nodes"`
	// HaloRadius is the largest L1 distance from the rectangle at which
	// a membership evaluation happened.
	HaloRadius int `json:"halo_radius"`
	// Lattice reports whether the periodic-anchor fast path served the
	// evaluation.
	Lattice bool `json:"lattice,omitempty"`
}

// splitmix64 is the SplitMix64 finalizer, used to derive the affine
// identifier parameters from a seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mulmod returns a*b mod m without overflow, for a, b < m.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m)
	return r
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// affineParams derives the multiplier and offset of the seed's affine
// identifier permutation: a is forced coprime to n so v ↦ (a·v + b) mod n
// is a bijection.
func affineParams(n uint64, seed int64) (a, b uint64) {
	h := splitmix64(uint64(seed))
	a = h % n
	h = splitmix64(h)
	b = h % n
	if a == 0 {
		a = 1
	}
	for gcd64(a, n) != 1 {
		a++
		if a >= n {
			a = 1
		}
	}
	return a, b
}

// AffineID returns the identifier windowed evaluation assigns to node v
// of an n-node torus under the given seed: seed 0 is the sequential
// assignment v+1 (matching local.SequentialIDs), any other seed selects
// the affine permutation 1 + ((a·v + b) mod n) with a coprime to n.
// Unlike the shuffle-based PermutedIDs, the assignment is O(1) per node,
// which is what makes it usable on 10^12-node tori.
func AffineID(n int, seed int64, v int) int {
	if seed == 0 {
		return v + 1
	}
	a, b := affineParams(uint64(n), seed)
	m := uint64(n)
	return 1 + int((mulmod(a, uint64(v), m)+b)%m)
}

// AffineIDs materialises AffineID for all n nodes — for small tori only
// (equivalence tests and full-grid Run comparisons).
func AffineIDs(n int, seed int64) []int {
	ids := make([]int, n)
	if seed == 0 {
		for v := range ids {
			ids[v] = v + 1
		}
		return ids
	}
	a, b := affineParams(uint64(n), seed)
	m := uint64(n)
	for v := range ids {
		ids[v] = 1 + int((mulmod(a, uint64(v), m)+b)%m)
	}
	return ids
}

// LatticeModulus returns the period of the perfect Lee code used by the
// periodic-anchor fast path for power k: anchors sit at
// ((k+1)·x + k·y) ≡ 0 (mod 2k²+2k+1), which is an MIS of G^(k) under L1.
// The lattice is consistent with the torus wrap-around iff both sides
// are multiples of the modulus.
func LatticeModulus(k int) int { return 2*k*k + 2*k + 1 }

// WindowEvaluator labels rectangles of a torus from a cached Synthesized
// table with O(window + halo) work and memory. An evaluator is bound to
// one (algorithm, torus, seed, mode) tuple and is not safe for
// concurrent use; construction is cheap, the Linial schedule included
// (a few microseconds even for 10^12-node tori).
type WindowEvaluator struct {
	alg     *Synthesized
	t       *grid.Torus
	seed    int64
	lattice bool
	latM    int

	// Deterministic-ID parameters (seed != 0).
	affA, affB uint64

	// Linial replay state (exact mode only).
	offs   [][]int  // ball offsets of G^(k) = power-graph neighbourhood
	levels [][2]int // (d, q) per colour-reduction level
	finalM int      // final colour-space size

	// Neighbour colours, one len(offs) segment per level: color(l, v)
	// fills segment l-1 and recurses only into level l-1, so no segment
	// is ever in use twice at once.
	nbrBuf  []int
	chooser coloring.LinialChooser

	colorMemo  []map[int]int // colorMemo[l][v] = colour of v after level l+1
	memberMemo map[int]int8  // 1 in MIS, 0 not

	// Rectangle being evaluated, normalised, for halo accounting.
	rx, ry, rw, rh int

	stats WindowStats
}

// NewWindowEvaluator builds a windowed evaluator for alg on torus t.
// Seed selects the identifier assignment (see AffineID). In lattice mode
// the anchor MIS is the periodic perfect code instead of the
// identifier-driven Linial/MIS construction: a valid labeling computed
// in O(1) per node with zero halo, but a different one from full-grid
// Run, and only available when both torus sides are multiples of
// LatticeModulus(alg.K).
func NewWindowEvaluator(alg *Synthesized, t *grid.Torus, seed int64, lattice bool) (*WindowEvaluator, error) {
	if t.Dim() != 2 {
		return nil, fmt.Errorf("core: windowed evaluation runs on 2-dimensional tori, got %d dimensions", t.Dim())
	}
	if min := alg.MinTorusSide(); t.NX() < min || t.NY() < min {
		return nil, TorusTooSmallError(alg.K, alg.H, alg.W)
	}
	e := &WindowEvaluator{alg: alg, t: t, seed: seed, lattice: lattice}
	if lattice {
		e.latM = LatticeModulus(alg.K)
		if t.NX()%e.latM != 0 || t.NY()%e.latM != 0 {
			return nil, fmt.Errorf("core: lattice mode needs both torus sides divisible by %d (k=%d), got %dx%d", e.latM, alg.K, t.NX(), t.NY())
		}
		e.stats.Lattice = true
		return e, nil
	}
	if seed != 0 {
		e.affA, e.affB = affineParams(uint64(t.N()), seed)
	}
	e.offs = t.BallOffsets(alg.K, grid.L1)
	// Sides >= MinTorusSide > 2k+1, so the k-ball never self-overlaps and
	// every node of the power graph has degree len(offs) — the uniform
	// maxDeg LinialColor derives via local.MaxDegree.
	e.levels, e.finalM = coloring.LinialSchedule(t.N(), len(e.offs))
	e.nbrBuf = make([]int, len(e.levels)*len(e.offs))
	e.Reset()
	return e, nil
}

// Reset drops the memoized colour and membership state while keeping the
// derived Linial schedule, bounding resident memory across successive
// rectangles (the streaming whole-grid export resets between bands).
// Stats are cumulative and survive a Reset.
func (e *WindowEvaluator) Reset() {
	if e.lattice {
		return
	}
	e.colorMemo = make([]map[int]int, len(e.levels))
	for i := range e.colorMemo {
		e.colorMemo[i] = make(map[int]int)
	}
	e.memberMemo = make(map[int]int8)
}

// Stats returns the cumulative work counters.
func (e *WindowEvaluator) Stats() WindowStats { return e.stats }

// Rounds returns the synchronous round count of the simulated
// distributed algorithm on this torus — identical to the Rounds total
// Synthesized.Run reports (Linial iterations plus the colour-class
// sweep, times the power-graph simulation overhead, plus the window
// gather). Lattice mode needs no symmetry breaking, only the gather.
func (e *WindowEvaluator) Rounds() int {
	if e.lattice {
		return e.alg.GatherRadius()
	}
	return (len(e.levels)+e.finalM)*e.alg.K + e.alg.GatherRadius()
}

// id returns the identifier of node v (see AffineID).
func (e *WindowEvaluator) id(v int) int {
	if e.seed == 0 {
		return v + 1
	}
	m := uint64(e.t.N())
	return 1 + int((mulmod(e.affA, uint64(v), m)+e.affB)%m)
}

// color returns node v's colour after l levels of Linial reduction
// (level 0 is the identifier). Memoized; values agree exactly with what
// the full-graph LinialColor computes because both replay the same
// schedule and the same per-node choice.
func (e *WindowEvaluator) color(l, v int) int {
	if l == 0 {
		return e.id(v)
	}
	if c, ok := e.colorMemo[l-1][v]; ok {
		return c
	}
	d, q := e.levels[l-1][0], e.levels[l-1][1]
	own := e.color(l-1, v)
	nbrs := e.nbrBuf[(l-1)*len(e.offs) : l*len(e.offs)]
	for i, off := range e.offs {
		nbrs[i] = e.color(l-1, e.t.ShiftVec(v, off))
	}
	c := e.chooser.Choose(own, nbrs, d, q)
	if c < 0 {
		panic(fmt.Sprintf("core: no Linial evaluation point at node %d (q=%d, d=%d) — colouring not proper", v, q, d))
	}
	e.colorMemo[l-1][v] = c
	e.stats.ColorNodes++
	return c
}

// member reports whether node v is an anchor. In exact mode it evaluates
// the colour-class sweep of MISFromColoring pointwise: v joins iff no
// power-neighbour with a strictly smaller final colour joined (a proper
// colouring has no same-coloured power-neighbours, and larger colours
// act in later sweep rounds, so this is the whole condition). The
// recursion is over strictly decreasing colours and therefore acyclic.
func (e *WindowEvaluator) member(v int) bool {
	if e.lattice {
		x, y := e.t.XY(v)
		return ((e.alg.K+1)*x+e.alg.K*y)%e.latM == 0
	}
	if m, ok := e.memberMemo[v]; ok {
		return m == 1
	}
	last := len(e.levels)
	cv := e.color(last, v)
	in := true
	for _, off := range e.offs {
		u := e.t.ShiftVec(v, off)
		if e.color(last, u) < cv && e.member(u) {
			in = false
			break
		}
	}
	if in {
		e.memberMemo[v] = 1
	} else {
		e.memberMemo[v] = 0
	}
	e.noteAnchor(v)
	return in
}

// noteAnchor accounts a membership evaluation against the halo counters.
func (e *WindowEvaluator) noteAnchor(v int) {
	e.stats.AnchorNodes++
	x, y := e.t.XY(v)
	dx := axisDist(x, e.rx, e.rw, e.t.NX())
	dy := axisDist(y, e.ry, e.rh, e.t.NY())
	if dx == 0 && dy == 0 {
		return
	}
	e.stats.HaloNodes++
	if d := dx + dy; d > e.stats.HaloRadius {
		e.stats.HaloRadius = d
	}
}

// axisDist returns the toroidal distance from coordinate p to the
// interval [start, start+length) on a cycle of the given side.
func axisDist(p, start, length, side int) int {
	q := ((p-start)%side + side) % side
	if q < length {
		return 0
	}
	back := q - (length - 1)
	forward := side - q
	if forward < back {
		return forward
	}
	return back
}

// LabelRect labels the w×h rectangle whose south-west origin is node
// (x0, y0): the result is row-major with labels[r*w+c] the label of node
// ((x0+c) mod NX, (y0+r) mod NY). Negative or oversized origins wrap.
// For the full-grid rectangle (0, 0, NX, NY) the result slice is indexed
// exactly like Run's label array. The context is checked once per row so
// a server deadline can stop a large window promptly.
func (e *WindowEvaluator) LabelRect(ctx context.Context, x0, y0, w, h int) ([]int, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("core: window dimensions must be positive, got %dx%d", w, h)
	}
	nx, ny := e.t.NX(), e.t.NY()
	e.rx, e.ry = ((x0%nx)+nx)%nx, ((y0%ny)+ny)%ny
	e.rw, e.rh = w, h
	if e.rw > nx {
		e.rw = nx
	}
	if e.rh > ny {
		e.rh = ny
	}
	bitIdx, bitOK := e.alg.Graph.BitIndex()
	out := make([]int, w*h)
	for r := 0; r < h; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for c := 0; c < w; c++ {
			lab, err := e.label(x0+c, y0+r, bitIdx, bitOK)
			if err != nil {
				return nil, err
			}
			out[r*w+c] = lab
		}
	}
	e.stats.WindowNodes += w * h
	return out, nil
}

// label computes the output label of the node at (x, y) by gathering its
// h×w anchor window and probing the tile table.
func (e *WindowEvaluator) label(x, y int, bitIdx map[uint64]int, bitOK bool) (int, error) {
	s := e.alg
	if bitOK {
		var key uint64
		bit := 0
		for r := 0; r < s.H; r++ {
			for c := 0; c < s.W; c++ {
				if e.member(e.t.At(x-s.OffC+c, y+s.OffR-r)) {
					key |= 1 << bit
				}
				bit++
			}
		}
		ti, ok := bitIdx[key]
		if !ok {
			return 0, notTileError(s, key, e.t.At(x, y))
		}
		return s.Table[ti], nil
	}
	win := make([]bool, s.H*s.W)
	bit := 0
	for r := 0; r < s.H; r++ {
		for c := 0; c < s.W; c++ {
			win[bit] = e.member(e.t.At(x-s.OffC+c, y+s.OffR-r))
			bit++
		}
	}
	key := (tiles.Pattern{H: s.H, W: s.W, Bits: win}).Key()
	ti, ok := s.Graph.Index[key]
	if !ok {
		return 0, fmt.Errorf("core: observed window %s at node %d is not a tile (torus too small or anchors invalid)", key, e.t.At(x, y))
	}
	return s.Table[ti], nil
}
