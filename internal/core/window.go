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
//     coloring.LinialSchedule and each choice made by
//     coloring.FirstSeparating, so values agree with the full-graph
//     LinialColor exactly);
//   - MIS membership after the colour-class sweep satisfies
//     member(v) ⇔ no power-neighbour u with colour(u) < colour(v) is a
//     member — same-coloured neighbours cannot exist under a proper
//     colouring, so the sweep order inside a colour class is irrelevant
//     and the recursion (over strictly decreasing colours) terminates;
//   - the output label is the table entry of the h×w anchor window.
//
// Every node the recursions touch gets one record in the evaluator's
// node table, which lives until Reset (it spans LabelRect calls): its
// identifier and the digits of each colour level it reaches are
// computed once, however many k-balls read them. The state is
// O(window + halo): the halo is the set of nodes outside the requested
// rectangle whose colours or membership the recursion touches, bounded
// by k·(levels + finalColours) in each direction. The recursions walk
// nodes by wrapped (x, y) coordinates: every side is at least
// MinTorusSide > 2k+1, so a ball or window step wraps at most once per
// axis and needs no division.

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
	nx, ny  int
	seed    int64
	lattice bool
	latM    int

	// Deterministic-ID parameters (seed != 0).
	affA, affB uint64

	// Linial replay state (exact mode only).
	offs   [][2]int // ball offsets (dx, dy) of G^(k) = power-graph neighbourhood
	levels [][2]int // (d, q) per colour-reduction level
	finalM int      // final colour-space size

	// gather holds one digit segment per level: level l's choice copies
	// the node's and its neighbours' level-(l-1) digits into segment
	// l-1 and recurses only into level l-1, so no segment is ever in use
	// twice at once. gatherAt[l-1] is where segment l-1 starts.
	gather   []uint32
	gatherAt []int

	nodes nodeTable

	// Rectangle being evaluated, normalised, for halo accounting.
	rx, ry, rw, rh int

	stats WindowStats
}

// nodeTable is the exact-mode memo: one record per node the recursions
// touched. With L Linial levels, level l < L of a record is stored as
// the digits the level-(l+1) choice reads (base q_{l+1}, d_{l+1}+1 of
// them) and level L as the final colour; level 0 (the identifier) is
// filled when the record is made, higher levels only where the
// recursion asks for them.
type nodeTable struct {
	// box[dx+dy*boxW] is the record index + 1 of the node at
	// ((ox+dx) mod NX, (oy+dy) mod NY), or 0 before it has one. The
	// boxW×boxH box covers the rectangle and the halo most recursions
	// stay in, so those nodes are found by position alone.
	box                []int32
	ox, oy, boxW, boxH int
	// Nodes outside the box are found through an open-addressed index
	// keyed by node index: farKeys[i] is a node index and farRecs[i] its
	// record index + 1, or 0 for an empty slot. The length is a power of
	// two.
	farKeys []int
	farRecs []int32
	farN    int

	member []int8  // per record: memberUnknown, memberOut or memberIn
	refs   []int32 // per record, L entries: refs[r*L+l-1] locates level l, -1 until computed

	// digits[l] holds level-l digit blocks: level 0 at the record index,
	// level l ≥ 1 at its refs entry.
	digits [][]uint32
	// final holds level-L colours, at the refs entry (at the record index
	// when L = 0, where the identifier is the final colour).
	final []int
}

const (
	memberUnknown int8 = iota
	memberOut
	memberIn
)

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
	e := &WindowEvaluator{alg: alg, t: t, nx: t.NX(), ny: t.NY(), seed: seed, lattice: lattice}
	if lattice {
		e.latM = LatticeModulus(alg.K)
		if e.nx%e.latM != 0 || e.ny%e.latM != 0 {
			return nil, fmt.Errorf("core: lattice mode needs both torus sides divisible by %d (k=%d), got %dx%d", e.latM, alg.K, e.nx, e.ny)
		}
		e.stats.Lattice = true
		return e, nil
	}
	if seed != 0 {
		e.affA, e.affB = affineParams(uint64(t.N()), seed)
	}
	for _, off := range t.BallOffsets(alg.K, grid.L1) {
		e.offs = append(e.offs, [2]int{off[0], off[1]})
	}
	// Sides >= MinTorusSide > 2k+1, so the k-ball never self-overlaps and
	// every node of the power graph has degree len(offs) — the uniform
	// maxDeg LinialColor derives via local.MaxDegree.
	e.levels, e.finalM = coloring.LinialSchedule(t.N(), len(e.offs))
	size := 0
	for _, lv := range e.levels {
		e.gatherAt = append(e.gatherAt, size)
		size += (len(e.offs) + 1) * (lv[0] + 1)
	}
	e.gather = make([]uint32, size)
	return e, nil
}

// Reset drops the memoized colour and membership state while keeping the
// derived Linial schedule, bounding resident memory across successive
// rectangles (the streaming whole-grid export resets between bands).
// Stats are cumulative and survive a Reset.
func (e *WindowEvaluator) Reset() { e.nodes = nodeTable{} }

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

// step returns the coordinate c+d wrapped onto a side of the given
// length, for c in [0, side) and |d| < side.
func step(c, d, side int) int {
	c += d
	if c < 0 {
		return c + side
	}
	if c >= side {
		return c - side
	}
	return c
}

// reserve sizes an empty node table for a w×h rectangle. The records
// of level l lie mostly within k·(levels+4−l) of it: the colour
// recursion adds k per level below the final one, and the membership
// recursion, which follows chains of decreasing final colours, mostly
// stays within three k (on the catalogue's windows it reached up to
// 24k, rarely). The box takes the level-0 halo.
func (e *WindowEvaluator) reserve(w, h int) {
	nt := &e.nodes
	L := len(e.levels)
	area := func(l int) (int, int, int) {
		halo := e.alg.K * (L + 4 - l)
		bw, bh := min(w+2*halo, e.nx), min(h+2*halo, e.ny)
		return halo, bw, bh
	}
	halo, bw, bh := area(0)
	nt.ox, nt.oy, nt.boxW, nt.boxH = mod(e.rx-halo, e.nx), mod(e.ry-halo, e.ny), bw, bh
	nt.box = make([]int32, bw*bh)
	nt.member = make([]int8, 0, bw*bh)
	nt.refs = make([]int32, 0, bw*bh*L)
	nt.digits = make([][]uint32, L)
	for l := range nt.digits {
		_, bw, bh := area(l)
		nt.digits[l] = make([]uint32, 0, bw*bh*(e.levels[l][0]+1))
	}
	_, bw, bh = area(L)
	nt.final = make([]int, 0, bw*bh)
}

// mod returns c mod side in [0, side).
func mod(c, side int) int { return (c%side + side) % side }

// node returns the record of the node at wrapped coordinates (x, y),
// making it — identifier digits included — on first use.
func (e *WindowEvaluator) node(x, y int) int32 {
	nt := &e.nodes
	dx, dy := x-nt.ox, y-nt.oy
	if dx < 0 {
		dx += e.nx
	}
	if dy < 0 {
		dy += e.ny
	}
	if dx < nt.boxW && dy < nt.boxH {
		i := dx + dy*nt.boxW
		if r := nt.box[i]; r != 0 {
			return r - 1
		}
		r := e.newRecord(x + y*e.nx)
		nt.box[i] = r + 1
		return r
	}
	return e.farNode(x + y*e.nx)
}

// farNode is node for a node outside the box, by node index v.
func (e *WindowEvaluator) farNode(v int) int32 {
	nt := &e.nodes
	if 2*(nt.farN+1) > len(nt.farKeys) {
		nt.growFar()
	}
	mask := uint64(len(nt.farKeys) - 1)
	i := splitmix64(uint64(v)) & mask
	for nt.farRecs[i] != 0 {
		if nt.farKeys[i] == v {
			return nt.farRecs[i] - 1
		}
		i = (i + 1) & mask
	}
	r := e.newRecord(v)
	nt.farKeys[i], nt.farRecs[i] = v, r+1
	nt.farN++
	return r
}

// growFar doubles the far index (starting at 64 slots) and re-inserts
// its entries.
func (nt *nodeTable) growFar() {
	keys, recs := nt.farKeys, nt.farRecs
	size := max(64, 2*len(keys))
	nt.farKeys, nt.farRecs = make([]int, size), make([]int32, size)
	mask := uint64(size - 1)
	for j, r := range recs {
		if r == 0 {
			continue
		}
		i := splitmix64(uint64(keys[j])) & mask
		for nt.farRecs[i] != 0 {
			i = (i + 1) & mask
		}
		nt.farKeys[i], nt.farRecs[i] = keys[j], r
	}
}

// newRecord makes the record of node v with its level-0 value.
func (e *WindowEvaluator) newRecord(v int) int32 {
	nt := &e.nodes
	r := int32(len(nt.member))
	nt.member = append(nt.member, memberUnknown)
	L := len(e.levels)
	for i := 0; i < L; i++ {
		nt.refs = append(nt.refs, -1)
	}
	if L == 0 {
		nt.final = append(nt.final, e.id(v))
	} else {
		nt.digits[0] = appendDigits(nt.digits[0], e.id(v), e.levels[0])
	}
	return r
}

// appendDigits appends the base-q digits of colour c that level
// lv = (d, q)'s choice reads.
func appendDigits(digits []uint32, c int, lv [2]int) []uint32 {
	n := len(digits)
	digits = append(digits, make([]uint32, lv[0]+1)...)
	coloring.ToDigits(c, lv[1], digits[n:])
	return digits
}

// level returns where record r's level-l value is stored (see
// nodeTable), computing it first if needed; (x, y) are the node's
// coordinates. Values agree exactly with what the full-graph LinialColor
// computes because both replay the same schedule and the same per-node
// choice.
func (e *WindowEvaluator) level(l int, r int32, x, y int) int32 {
	if l == 0 {
		return r
	}
	L := len(e.levels)
	if i := e.nodes.refs[int(r)*L+l-1]; i >= 0 {
		return i
	}
	d, q := e.levels[l-1][0], e.levels[l-1][1]
	k := d + 1
	buf := e.gather[e.gatherAt[l-1] : e.gatherAt[l-1]+(len(e.offs)+1)*k]
	own := int(e.level(l-1, r, x, y))
	copy(buf[:k], e.nodes.digits[l-1][own*k:])
	for i, off := range e.offs {
		ux, uy := step(x, off[0], e.nx), step(y, off[1], e.ny)
		u := int(e.level(l-1, e.node(ux, uy), ux, uy))
		copy(buf[(i+1)*k:(i+2)*k], e.nodes.digits[l-1][u*k:])
	}
	c := coloring.FirstSeparating(buf, k, q)
	if c < 0 {
		panic(fmt.Sprintf("core: no Linial evaluation point at node %d (q=%d, d=%d) — colouring not proper", x+y*e.nx, q, d))
	}
	nt := &e.nodes
	var i int32
	if l < L {
		i = int32(len(nt.digits[l]) / (e.levels[l][0] + 1))
		nt.digits[l] = appendDigits(nt.digits[l], c, e.levels[l])
	} else {
		i = int32(len(nt.final))
		nt.final = append(nt.final, c)
	}
	nt.refs[int(r)*L+l-1] = i
	e.stats.ColorNodes++
	return i
}

// finalColor returns the final colour of record r at (x, y).
func (e *WindowEvaluator) finalColor(r int32, x, y int) int {
	i := e.level(len(e.levels), r, x, y)
	return e.nodes.final[i]
}

// member reports whether the node of record r, at (x, y), is an anchor.
// It evaluates the colour-class sweep of MISFromColoring pointwise: the
// node joins iff no power-neighbour with a strictly smaller final colour
// joined (a proper colouring has no same-coloured power-neighbours, and
// larger colours act in later sweep rounds, so this is the whole
// condition). The recursion is over strictly decreasing colours and
// therefore acyclic.
func (e *WindowEvaluator) member(r int32, x, y int) bool {
	if m := e.nodes.member[r]; m != memberUnknown {
		return m == memberIn
	}
	cv := e.finalColor(r, x, y)
	in := true
	for _, off := range e.offs {
		ux, uy := step(x, off[0], e.nx), step(y, off[1], e.ny)
		u := e.node(ux, uy)
		if e.finalColor(u, ux, uy) < cv && e.member(u, ux, uy) {
			in = false
			break
		}
	}
	if in {
		e.nodes.member[r] = memberIn
	} else {
		e.nodes.member[r] = memberOut
	}
	e.noteAnchor(x, y)
	return in
}

// anchor reports whether the node at wrapped coordinates (x, y) is an
// anchor: a closed-form test in lattice mode, member otherwise.
func (e *WindowEvaluator) anchor(x, y int) bool {
	if e.lattice {
		return ((e.alg.K+1)*x+e.alg.K*y)%e.latM == 0
	}
	return e.member(e.node(x, y), x, y)
}

// noteAnchor accounts a membership evaluation at (x, y) against the
// halo counters.
func (e *WindowEvaluator) noteAnchor(x, y int) {
	e.stats.AnchorNodes++
	dx := axisDist(x, e.rx, e.rw, e.nx)
	dy := axisDist(y, e.ry, e.rh, e.ny)
	if dx == 0 && dy == 0 {
		return
	}
	e.stats.HaloNodes++
	if d := dx + dy; d > e.stats.HaloRadius {
		e.stats.HaloRadius = d
	}
}

// axisDist returns the toroidal distance from coordinate p to the
// interval [start, start+length) on a cycle of the given side, for p
// and start in [0, side).
func axisDist(p, start, length, side int) int {
	q := p - start
	if q < 0 {
		q += side
	}
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
	nx, ny := e.nx, e.ny
	e.rx, e.ry = mod(x0, nx), mod(y0, ny)
	e.rw, e.rh = min(w, nx), min(h, ny)
	if !e.lattice && e.nodes.box == nil {
		e.reserve(e.rw, e.rh)
	}
	bitIdx, bitOK := e.alg.Graph.BitIndex()
	out := make([]int, w*h)
	y := e.ry
	for r := 0; r < h; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := e.rx
		for c := 0; c < w; c++ {
			lab, err := e.label(x, y, bitIdx, bitOK)
			if err != nil {
				return nil, err
			}
			out[r*w+c] = lab
			if x++; x == nx {
				x = 0
			}
		}
		if y++; y == ny {
			y = 0
		}
	}
	e.stats.WindowNodes += w * h
	return out, nil
}

// label computes the output label of the node at wrapped coordinates
// (x, y) by gathering its h×w anchor window and probing the tile table.
func (e *WindowEvaluator) label(x, y int, bitIdx map[uint64]int, bitOK bool) (int, error) {
	s := e.alg
	x0 := step(x, -s.OffC, e.nx)
	if bitOK {
		var key uint64
		bit := 0
		for r := 0; r < s.H; r++ {
			wy := step(y, s.OffR-r, e.ny)
			for c, wx := 0, x0; c < s.W; c++ {
				if e.anchor(wx, wy) {
					key |= 1 << bit
				}
				bit++
				if wx++; wx == e.nx {
					wx = 0
				}
			}
		}
		ti, ok := bitIdx[key]
		if !ok {
			return 0, notTileError(s, key, x+y*e.nx)
		}
		return s.Table[ti], nil
	}
	win := make([]bool, s.H*s.W)
	bit := 0
	for r := 0; r < s.H; r++ {
		wy := step(y, s.OffR-r, e.ny)
		for c, wx := 0, x0; c < s.W; c++ {
			win[bit] = e.anchor(wx, wy)
			bit++
			if wx++; wx == e.nx {
				wx = 0
			}
		}
	}
	key := (tiles.Pattern{H: s.H, W: s.W, Bits: win}).Key()
	ti, ok := s.Graph.Index[key]
	if !ok {
		return 0, notTileKeyError(key, x+y*e.nx)
	}
	return s.Table[ti], nil
}
