// Package grid implements the toroidal d-dimensional grid graphs of the
// paper (§3): node set [n_1]×...×[n_d], edges between nodes at L1 distance
// 1 (coordinates modulo the side lengths), with a globally consistent
// orientation: every node knows which incident edge increases or decreases
// each coordinate. The package also provides graph powers with respect to
// the L1 norm (written G^(k) in the paper) and the L∞ norm (G^[k], §8).
//
// Conventions used throughout the repository:
//
//   - Dimension 0 is "x" with the positive direction called east;
//     dimension 1 is "y" with the positive direction called north.
//   - Port 2i on a node is the edge in the positive direction of dimension
//     i, and port 2i+1 the negative direction. In two dimensions the ports
//     are therefore E, W, N, S in that order.
//   - Two-dimensional h×w windows are written in "screen" coordinates:
//     row 0 is the northernmost row, rows grow southward, columns grow
//     eastward. This matches the figures in the paper.
package grid

import (
	"errors"
	"fmt"
)

// Norm selects the metric used for balls and graph powers.
type Norm int

// The two norms used by the paper: L1 (grid distance; powers written
// G^(k)) and L∞ (powers written G^[k]).
const (
	L1 Norm = iota
	LInf
)

// String implements fmt.Stringer.
func (m Norm) String() string {
	switch m {
	case L1:
		return "L1"
	case LInf:
		return "LInf"
	default:
		return fmt.Sprintf("Norm(%d)", int(m))
	}
}

// Port directions for two-dimensional grids.
const (
	East  = 0
	West  = 1
	North = 2
	South = 3
)

// Torus is a d-dimensional toroidal grid graph. The zero value is not
// usable; construct with New, MustNew or Square.
type Torus struct {
	dims    []int
	strides []int
	n       int
}

// New creates a toroidal grid with the given side lengths, one per
// dimension. All sides must be at least 1 and at least one dimension must
// be given.
func New(dims ...int) (*Torus, error) {
	if len(dims) == 0 {
		return nil, errors.New("grid: need at least one dimension")
	}
	n := 1
	strides := make([]int, len(dims))
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("grid: dimension %d has side %d < 1", i, d)
		}
		strides[i] = n
		n *= d
	}
	return &Torus{dims: append([]int(nil), dims...), strides: strides, n: n}, nil
}

// MustNew is New but panics on error; intended for tests and constants.
func MustNew(dims ...int) *Torus {
	t, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// Square returns the 2-dimensional n×n torus of the paper's main setting.
func Square(n int) *Torus { return MustNew(n, n) }

// Cycle returns the 1-dimensional torus, i.e. the directed n-cycle of §4.
// Port 0 leads to the successor (consistent orientation), port 1 to the
// predecessor.
func Cycle(n int) *Torus { return MustNew(n) }

// Dim returns the number of dimensions d.
func (t *Torus) Dim() int { return len(t.dims) }

// Side returns the side length of dimension i.
func (t *Torus) Side(i int) int { return t.dims[i] }

// Sides returns a copy of the side lengths.
func (t *Torus) Sides() []int { return append([]int(nil), t.dims...) }

// N returns the number of nodes.
func (t *Torus) N() int { return t.n }

// Degree returns the degree of node v in the port-numbered graph, always
// 2d. For sides < 3 some ports lead to coinciding nodes; the algorithms in
// this repository require sides of at least 3 (the paper assumes n large).
func (t *Torus) Degree(int) int { return 2 * len(t.dims) }

// Neighbor returns the node reached from v through the given port
// (port 2i = positive direction of dimension i, 2i+1 = negative).
func (t *Torus) Neighbor(v, port int) int {
	dim := port / 2
	if port%2 == 0 {
		return t.Move(v, dim, 1)
	}
	return t.Move(v, dim, -1)
}

// Move returns the node at coordinate offset delta from v along dimension
// dim, wrapping around the torus.
func (t *Torus) Move(v, dim, delta int) int {
	side := t.dims[dim]
	stride := t.strides[dim]
	c := (v / stride) % side
	nc := ((c+delta)%side + side) % side
	return v + (nc-c)*stride
}

// Coords returns the coordinate vector of node v as a fresh slice.
func (t *Torus) Coords(v int) []int {
	out := make([]int, len(t.dims))
	t.CoordsInto(v, out)
	return out
}

// CoordsInto writes the coordinate vector of node v into out, which must
// have length Dim().
func (t *Torus) CoordsInto(v int, out []int) {
	for i, d := range t.dims {
		out[i] = v % d
		v /= d
	}
}

// Index returns the node with the given coordinates. Coordinates are
// reduced modulo the side lengths, so negative and overflowing values are
// valid.
func (t *Torus) Index(coords ...int) int {
	if len(coords) != len(t.dims) {
		panic(fmt.Sprintf("grid: Index got %d coordinates for %d dimensions", len(coords), len(t.dims)))
	}
	v := 0
	for i := len(coords) - 1; i >= 0; i-- {
		d := t.dims[i]
		c := ((coords[i] % d) + d) % d
		v = v*d + c
	}
	return v
}

// ShiftVec returns the node at coordinate offset off (length Dim()) from v.
func (t *Torus) ShiftVec(v int, off []int) int {
	for i, delta := range off {
		if delta != 0 {
			v = t.Move(v, i, delta)
		}
	}
	return v
}

// coordDist returns the toroidal distance between coordinates a and b in a
// dimension with the given side.
func coordDist(a, b, side int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if side-d < d {
		d = side - d
	}
	return d
}

// Dist returns the toroidal distance between u and v under the given norm.
// The L1 distance equals the graph distance in the torus.
func (t *Torus) Dist(u, v int, norm Norm) int {
	total := 0
	for i, side := range t.dims {
		stride := t.strides[i]
		cu := (u / stride) % side
		cv := (v / stride) % side
		d := coordDist(cu, cv, side)
		if norm == L1 {
			total += d
		} else if d > total {
			total = d
		}
	}
	return total
}

// BallOffsets returns all nonzero canonical coordinate offsets with the
// given norm at most k on this torus. Offsets are canonicalised modulo the
// side lengths so every returned offset reaches a distinct node different
// from the origin; on small tori the ball can wrap and contain fewer
// offsets than on the infinite grid.
func (t *Torus) BallOffsets(k int, norm Norm) [][]int {
	if k < 0 {
		return nil
	}
	var out [][]int
	// Offsets are told apart by the node they reach from node 0, the
	// index Σ canon[i]·strides[i] of their canonical form.
	seen := make(map[int]bool)
	off := make([]int, len(t.dims))
	var rec func(dim, budget int)
	rec = func(dim, budget int) {
		if dim == len(t.dims) {
			key := 0
			for i, o := range off {
				d := t.dims[i]
				key += ((o%d + d) % d) * t.strides[i]
			}
			// Offsets that canonicalise to zero reach the node itself on
			// this torus (wrapped balls) and are excluded.
			if key == 0 || seen[key] {
				return
			}
			seen[key] = true
			out = append(out, append([]int(nil), off...))
			return
		}
		lim := k
		if norm == L1 {
			lim = budget
		}
		for o := -lim; o <= lim; o++ {
			off[dim] = o
			nb := budget
			if norm == L1 {
				if o < 0 {
					nb = budget + o
				} else {
					nb = budget - o
				}
			}
			rec(dim+1, nb)
		}
		off[dim] = 0
	}
	rec(0, k)
	return out
}

// Wrapped returns, for each coordinate c in [lo, lo+count) of dimension
// dim, the stride-scaled index of c wrapped onto the torus: entry i is
// the node-index contribution of coordinate lo+i, so a node's index is
// the sum of one entry per dimension. Only the first entry costs a
// division; loops over a materialised torus read their wrapped cells
// from these tables instead of calling Index or Move per cell.
func (t *Torus) Wrapped(dim, lo, count int) []int {
	side, stride := t.dims[dim], t.strides[dim]
	out := make([]int, count)
	c := (lo%side + side) % side
	for i := range out {
		out[i] = c * stride
		if c++; c == side {
			c = 0
		}
	}
	return out
}

// Power is the k-th power of a torus under a norm: same node set, with u
// and v adjacent iff their distance is at most k. It implements the
// local.Graph interface; neighbour i of every node is the one at
// BallOffsets(k, norm)[i].
//
// Neighbor runs without division: NewPower stores every node's
// coordinates, one int32 column per dimension filled by an odometer
// walk, and one Wrapped table per dimension covering the coordinates
// [-k, side+k) an offset can reach. A neighbour is the sum of one table
// entry per dimension. The tables take O(n·d) memory (8 B/node in two
// dimensions) and live only as long as the Power.
type Power struct {
	t    *Torus
	k    int
	norm Norm
	offs [][]int
	// coords[dim][v] is v's coordinate in dimension dim; wrapped[dim][c+k]
	// is the stride-scaled index of coordinate c; shift[i*d+dim] is
	// offs[i][dim]+k.
	coords  [][]int32
	wrapped [][]int
	shift   []int
}

// NewPower constructs the k-th power of t under the given norm. k must be
// at least 1.
func NewPower(t *Torus, k int, norm Norm) *Power {
	if k < 1 {
		panic("grid: power exponent must be >= 1")
	}
	d := t.Dim()
	p := &Power{t: t, k: k, norm: norm, offs: t.BallOffsets(k, norm)}
	p.shift = make([]int, 0, len(p.offs)*d)
	for _, off := range p.offs {
		for _, o := range off {
			p.shift = append(p.shift, o+k)
		}
	}
	p.coords = make([][]int32, d)
	p.wrapped = make([][]int, d)
	for dim := range p.coords {
		p.coords[dim] = make([]int32, t.n)
		p.wrapped[dim] = t.Wrapped(dim, -k, t.dims[dim]+2*k)
	}
	c := make([]int32, d)
	for v := 0; v < t.n; v++ {
		for dim, x := range c {
			p.coords[dim][v] = x
		}
		for dim := range c {
			if c[dim]++; int(c[dim]) < t.dims[dim] {
				break
			}
			c[dim] = 0
		}
	}
	return p
}

// Base returns the underlying torus.
func (p *Power) Base() *Torus { return p.t }

// K returns the power exponent.
func (p *Power) K() int { return p.k }

// Norm returns the norm of the power.
func (p *Power) Norm() Norm { return p.norm }

// N returns the number of nodes.
func (p *Power) N() int { return p.t.N() }

// Degree returns the degree of v in the power graph.
func (p *Power) Degree(int) int { return len(p.offs) }

// Neighbor returns the i-th neighbor of v in the power graph, the node
// ShiftVec(v, BallOffsets(k, norm)[i]).
func (p *Power) Neighbor(v, i int) int {
	d := len(p.coords)
	u := 0
	for dim, s := range p.shift[i*d : i*d+d] {
		u += p.wrapped[dim][int(p.coords[dim][v])+s]
	}
	return u
}

// SimulationOverhead returns the multiplicative round overhead of
// simulating one round of an algorithm on this power graph with messages
// on the underlying torus (see the package function SimulationOverhead).
func (p *Power) SimulationOverhead() int {
	return SimulationOverhead(p.t.Dim(), p.k, p.norm)
}

// SimulationOverhead returns the multiplicative round overhead of
// simulating one round on the k-th power, under norm, of a
// dim-dimensional torus with messages on the torus itself: k for the L1
// norm and k·dim for L∞ (the paper's ‖·‖1 ≤ d‖·‖∞ bound, §8).
func SimulationOverhead(dim, k int, norm Norm) int {
	if norm == L1 {
		return k
	}
	return k * dim
}

// --- Two-dimensional helpers -------------------------------------------

// NX returns the x side length of a 2-dimensional torus.
func (t *Torus) NX() int { return t.dims[0] }

// NY returns the y side length of a 2-dimensional torus.
func (t *Torus) NY() int { return t.dims[1] }

// XY returns the (x, y) coordinates of node v on a 2-dimensional torus.
func (t *Torus) XY(v int) (x, y int) {
	return v % t.dims[0], v / t.dims[0]
}

// At returns the node at coordinates (x, y) on a 2-dimensional torus,
// reducing modulo the sides.
func (t *Torus) At(x, y int) int { return t.Index(x, y) }

// WindowPattern extracts an h×w window in screen coordinates (row 0 =
// northernmost) whose north-west cell lies at (x0, y0). Entry r*w+c of the
// result is in[At(x0+c, y0-r)]. Valid for 2-dimensional tori only.
func (t *Torus) WindowPattern(in []bool, x0, y0, h, w int) []bool {
	out := make([]bool, h*w)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			out[r*w+c] = in[t.At(x0+c, y0-r)]
		}
	}
	return out
}
