// Package lm implements the LCL problem L_M of §6 of the paper: the
// labelling problem, parameterised by a Turing machine M, that is
// solvable in Θ(log* n) if M halts on the empty tape and requires Θ(n)
// otherwise — the reduction that makes the Θ(log* n)/Θ(n) classification
// of LCL problems on grids undecidable (Theorem 3).
//
// L_M is the disjoint union of two labellings: P1 is a proper
// 3-colouring (always solvable, but global by Theorem 9), and P2 is a
// tiling labelling in which every node carries a type pointing towards an
// anchor, diagonals are 2-coloured, and each anchor is the bottom-left
// corner of a complete encoding of M's execution table. The package
// provides a checker implementing the §6 local rules and a solver that
// constructs valid P2 labellings for halting machines.
package lm

import (
	"errors"
	"fmt"
	"slices"

	"lclgrid/internal/grid"
	"lclgrid/internal/local"
	"lclgrid/internal/tm"
)

// Type is a node type of the P2 labelling: the anchor type A, four
// quadrant types and four border types. Quadrant and border types name
// the direction of the step towards the anchor (the paper's diag
// operator).
type Type int

// The nine node types of §6.
const (
	TypeA Type = iota
	TypeNW
	TypeNE
	TypeSE
	TypeSW
	TypeN
	TypeS
	TypeE
	TypeW
)

var typeNames = [...]string{"A", "NW", "NE", "SE", "SW", "N", "S", "E", "W"}

// String implements fmt.Stringer.
func (q Type) String() string { return typeNames[q] }

// diagStep returns the coordinate offset of the diag operator for each
// type (paper: NW(v) = (x-1, y+1), NE(v) = (x+1, y+1), SE = (x+1, y-1),
// SW = (x-1, y-1), N = (x, y+1), S = (x, y-1), E = (x+1, y), W = (x-1, y)).
func diagStep(q Type) (dx, dy int) {
	switch q {
	case TypeNW:
		return -1, 1
	case TypeNE:
		return 1, 1
	case TypeSE:
		return 1, -1
	case TypeSW:
		return -1, -1
	case TypeN:
		return 0, 1
	case TypeS:
		return 0, -1
	case TypeE:
		return 1, 0
	case TypeW:
		return -1, 0
	default:
		return 0, 0
	}
}

// Label is a node label of L_M: either a P1 colour or a P2 tuple of
// type, diagonal colour bit and optional execution-table cell.
type Label struct {
	// P1 selects the 3-colouring part; Color is then in 1..3.
	P1    bool
	Color int
	// P2 part: the node type, the diagonal 2-colouring bit, and the
	// execution-table cell carried by the node (nil for none).
	Q    Type
	X    int
	Cell *tm.Cell
}

// Problem is the LCL problem L_M for a fixed machine M.
type Problem struct {
	M *tm.Machine
}

// New returns the L_M problem for machine m.
func New(m *tm.Machine) *Problem { return &Problem{M: m} }

// allowedDiag lists the permitted diag types per type (§6 rules (1)-(4)
// for quadrants; borders must repeat or reach the anchor).
var allowedDiag = map[Type][]Type{
	TypeNE: {TypeNE, TypeN, TypeE, TypeA},
	TypeSE: {TypeSE, TypeS, TypeE, TypeA},
	TypeSW: {TypeSW, TypeS, TypeW, TypeA},
	TypeNW: {TypeNW, TypeN, TypeW, TypeA},
	TypeN:  {TypeN, TypeA},
	TypeS:  {TypeS, TypeA},
	TypeE:  {TypeE, TypeA},
	TypeW:  {TypeW, TypeA},
}

// Verify checks a labelling against the local rules of L_M. The step
// bound for simulating M is derived from the torus size: a valid
// execution table must fit on the torus, so machines that run longer
// cannot be encoded.
func (p *Problem) Verify(t *grid.Torus, labels []Label) error {
	if t.Dim() != 2 {
		return errors.New("lm: need a 2-dimensional torus")
	}
	if len(labels) != t.N() {
		return fmt.Errorf("lm: %d labels for %d nodes", len(labels), t.N())
	}
	p1 := labels[0].P1
	for v, l := range labels {
		if l.P1 != p1 {
			return fmt.Errorf("lm: node %d mixes P1 and P2 labellings", v)
		}
	}
	if p1 {
		return p.verifyP1(t, labels)
	}
	return p.verifyP2(t, labels)
}

func (p *Problem) verifyP1(t *grid.Torus, labels []Label) error {
	for v := 0; v < t.N(); v++ {
		c := labels[v].Color
		if c < 1 || c > 3 {
			return fmt.Errorf("lm: node %d has P1 colour %d outside 1..3", v, c)
		}
		for _, dim := range []int{0, 1} {
			u := t.Move(v, dim, 1)
			if labels[u].Color == c {
				return fmt.Errorf("lm: P1 monochromatic edge %d-%d", v, u)
			}
		}
	}
	return nil
}

func (p *Problem) verifyP2(t *grid.Torus, labels []Label) error {
	// The node at (x+dx, y+dy) is cols[x+dx+1] + rows[y+dy+1] for
	// -1 <= dx < nx and -1 <= dy < ny, which covers the ±1 neighbourhood
	// and every execution-table cell (a table fits the torus), so no
	// lookup divides. Both walks visit nodes in index order.
	nx, ny := t.NX(), t.NY()
	cols := t.Wrapped(0, -1, 2*nx+1)
	rows := t.Wrapped(1, -1, 2*ny+1)
	at := func(x, y, dx, dy int) int { return cols[x+dx+1] + rows[y+dy+1] }
	q := func(v int) Type { return labels[v].Q }

	for y, v := 0, 0; y < ny; y++ {
		for x := 0; x < nx; x, v = x+1, v+1 {
			l := labels[v]
			switch l.Q {
			case TypeA:
				// Anchor surroundings (§6): Q(N)=S, Q(NE)=SW, Q(E)=W,
				// Q(SE)=NW, Q(S)=N, Q(SW)=NE, Q(W)=E, Q(NW)=SE.
				checks := []struct {
					dx, dy int
					want   Type
				}{
					{0, 1, TypeS}, {1, 1, TypeSW}, {1, 0, TypeW}, {1, -1, TypeNW},
					{0, -1, TypeN}, {-1, -1, TypeNE}, {-1, 0, TypeE}, {-1, 1, TypeSE},
				}
				for _, c := range checks {
					if got := q(at(x, y, c.dx, c.dy)); got != c.want {
						return fmt.Errorf("lm: anchor %d has %v at offset (%d,%d), want %v", v, got, c.dx, c.dy, c.want)
					}
				}
			default:
				dx, dy := diagStep(l.Q)
				d := at(x, y, dx, dy)
				ok := false
				for _, a := range allowedDiag[l.Q] {
					if q(d) == a {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("lm: node %d type %v has diag type %v", v, l.Q, q(d))
				}
				// Diagonal 2-colouring.
				if q(d) == l.Q && labels[d].X == l.X {
					return fmt.Errorf("lm: monochromatic diagonal %d (type %v)", v, l.Q)
				}
				// Border flanking rules.
				switch l.Q {
				case TypeN:
					if q(at(x, y, -1, 0)) != TypeNE || q(at(x, y, 1, 0)) != TypeNW {
						return fmt.Errorf("lm: N node %d not flanked by NE/NW", v)
					}
				case TypeS:
					if q(at(x, y, -1, 0)) != TypeSE || q(at(x, y, 1, 0)) != TypeSW {
						return fmt.Errorf("lm: S node %d not flanked by SE/SW", v)
					}
				case TypeE:
					if q(at(x, y, 0, 1)) != TypeSE || q(at(x, y, 0, -1)) != TypeNE {
						return fmt.Errorf("lm: E node %d not flanked by SE/NE", v)
					}
				case TypeW:
					if q(at(x, y, 0, 1)) != TypeSW || q(at(x, y, 0, -1)) != TypeNW {
						return fmt.Errorf("lm: W node %d not flanked by SW/NW", v)
					}
				}
			}
			// Execution-table content may only sit on A, S, W, SW nodes.
			if l.Cell != nil {
				switch l.Q {
				case TypeA, TypeS, TypeW, TypeSW:
				default:
					return fmt.Errorf("lm: node %d of type %v carries table content", v, l.Q)
				}
			}
		}
	}

	// Execution tables: every anchor must be the bottom-left corner of a
	// complete encoding of M's run; every table cell must match; no
	// content may exist outside anchors' tables.
	bound := t.N()
	table, err := p.M.Run(bound)
	hasAnchor := false
	claimed := make([]bool, t.N())
	for y, v := 0, 0; y < ny; y++ {
		for x := 0; x < nx; x, v = x+1, v+1 {
			if labels[v].Q != TypeA {
				continue
			}
			hasAnchor = true
			if err != nil {
				return fmt.Errorf("lm: labelling has an anchor but %s does not halt within %d steps", p.M.Name, bound)
			}
			if table.Steps+1 > t.NY() || table.Width > t.NX() {
				return fmt.Errorf("lm: execution table (%d×%d) does not fit the torus", table.Steps+1, table.Width)
			}
			for j := 0; j <= table.Steps; j++ {
				for i := 0; i < table.Width; i++ {
					u := at(x, y, i, j)
					claimed[u] = true
					want := table.Rows[j][i]
					got := labels[u].Cell
					if got == nil || *got != want {
						return fmt.Errorf("lm: node %d does not carry table cell (%d,%d) of %s", u, i, j, p.M.Name)
					}
				}
			}
		}
	}
	for v := 0; v < t.N(); v++ {
		if labels[v].Cell != nil && !claimed[v] {
			return fmt.Errorf("lm: node %d carries table content outside every table", v)
		}
	}
	_ = hasAnchor // a P2 labelling without anchors is legal only through the type rules, which force Ω(n) structure (§6)
	return nil
}

// TileSize returns the anchor spacing used by the solver for a machine
// halting in s steps: 4(s+1), the paper's MIS power.
func TileSize(s int) int { return 4 * (s + 1) }

// SolveLattice constructs a valid P2 labelling for a halting machine on a
// torus whose sides are multiples of the tile size, using a regular
// anchor lattice (perfectly rectangular tiles). This is the
// deterministic reference construction used to validate the checker; see
// SolveP2 for the distributed construction with anchors from a maximal
// independent set.
func (p *Problem) SolveLattice(t *grid.Torus, maxSteps int) ([]Label, error) {
	table, err := p.M.Run(maxSteps)
	if err != nil {
		return nil, err
	}
	m := TileSize(table.Steps)
	if t.NX()%m != 0 || t.NY()%m != 0 {
		return nil, fmt.Errorf("lm: torus sides must be multiples of %d", m)
	}
	anchors := make([]bool, t.N())
	for y := 0; y < t.NY(); y += m {
		for x := 0; x < t.NX(); x += m {
			anchors[t.At(x, y)] = true
		}
	}
	return p.labelFromAnchors(t, anchors, table, m)
}

// labelFromAnchors labels the torus given an anchor set: each node joins
// the tile of a nearest anchor (lexicographic (|dx|, |dy|, anchor) key
// among anchors within distance maxDist in each coordinate), takes its
// type from its position relative to the anchor (§6 equations (1)-(2)),
// 2-colours its diagonal by parity, and table cells are written from
// each anchor.
func (p *Problem) labelFromAnchors(t *grid.Torus, anchors []bool, table *tm.Table, maxDist int) ([]Label, error) {
	n := t.N()
	labels := make([]Label, n)
	nx, ny := t.NX(), t.NY()
	// wrapDX[dx+maxDist] and wrapDY[dy+maxDist] are the offsets dx, dy
	// reduced to the shortest way round the torus.
	shortest := func(side int) []int {
		out := make([]int, 2*maxDist+1)
		for i := range out {
			d := (i - maxDist) % side
			if d > side/2 {
				d -= side
			}
			if d < -(side-1)/2 {
				d += side
			}
			out[i] = d
		}
		return out
	}
	wrapDX, wrapDY := shortest(nx), shortest(ny)
	// Cell (x+dx, y+dy) is cols[x+dx+maxDist] + rows[y+dy+maxDist]. A
	// row without anchors holds no candidate and is skipped whole.
	cols := t.Wrapped(0, -maxDist, nx+2*maxDist)
	rows := t.Wrapped(1, -maxDist, ny+2*maxDist)
	anchored := make([]bool, len(rows))
	for i, row := range rows {
		anchored[i] = slices.Contains(anchors[row:row+nx], true)
	}
	v := 0
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			bestDX, bestDY, bestA := 0, 0, -1
			for dy := -maxDist; dy <= maxDist; dy++ {
				if !anchored[y+dy+maxDist] {
					continue
				}
				row := rows[y+dy+maxDist]
				for dx := -maxDist; dx <= maxDist; dx++ {
					a := row + cols[x+dx+maxDist]
					if !anchors[a] {
						continue
					}
					adx, ady := wrapDX[dx+maxDist], wrapDY[dy+maxDist]
					if bestA < 0 || lexLess(adx, ady, a, bestDX, bestDY, bestA) {
						bestDX, bestDY, bestA = adx, ady, a
					}
				}
			}
			if bestA < 0 {
				return nil, fmt.Errorf("lm: node %d has no anchor within distance %d", v, maxDist)
			}
			// bestDX, bestDY is the offset from node to anchor, so the
			// node sits at (dxu, dyu) = (-bestDX, -bestDY) from the anchor.
			dxu, dyu := -bestDX, -bestDY
			labels[v] = Label{Q: typeFor(dxu, dyu), X: parityFor(dxu, dyu)}
			v++
		}
	}
	// Write the execution tables: cell (i, j) of the table of the type-A
	// node at (x, y) goes to node (x+i, y+j). The offsets stay within
	// cols and rows, since Width <= Steps+1 <= maxDist (the tile size
	// 4(Steps+1)).
	v = 0
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if labels[v].Q == TypeA {
				for j := 0; j <= table.Steps; j++ {
					row := rows[y+j+maxDist]
					for i := 0; i < table.Width; i++ {
						c := table.Rows[j][i]
						labels[row+cols[x+i+maxDist]].Cell = &c
					}
				}
			}
			v++
		}
	}
	return labels, nil
}

// lexLess compares anchor-offset keys: smaller |dx| first, preferring the
// western anchor on exact x-ties, then smaller |dy| preferring the
// southern anchor, and finally the anchor id. The sign preferences are
// translation invariant, so regular lattices produce seam-free tilings.
func lexLess(dx1, dy1, a1, dx2, dy2, a2 int) bool {
	k1 := [5]int{abs(dx1), signRank(dx1), abs(dy1), signRank(dy1), a1}
	k2 := [5]int{abs(dx2), signRank(dx2), abs(dy2), signRank(dy2), a2}
	for i := range k1 {
		if k1[i] != k2[i] {
			return k1[i] < k2[i]
		}
	}
	return false
}

// signRank prefers negative offsets (anchor to the west / south).
func signRank(d int) int {
	if d < 0 {
		return 0
	}
	return 1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// typeFor returns the §6 type of a node at offset (dx, dy) from its
// anchor (equations (1) and (2)): e.g. NW if x_u > x and y_u < y.
func typeFor(dx, dy int) Type {
	switch {
	case dx == 0 && dy == 0:
		return TypeA
	case dx > 0 && dy < 0:
		return TypeNW
	case dx < 0 && dy < 0:
		return TypeNE
	case dx > 0 && dy > 0:
		return TypeSW
	case dx < 0 && dy > 0:
		return TypeSE
	case dx == 0 && dy < 0:
		return TypeN
	case dx == 0 && dy > 0:
		return TypeS
	case dx < 0 && dy == 0:
		return TypeE
	default:
		return TypeW
	}
}

// parityFor 2-colours the diagonals: following diag towards the anchor
// decreases min(|dx|, |dy|) on quadrants and |dx|+|dy| on borders by one
// each step, so the parity alternates along every maximal diagonal.
func parityFor(dx, dy int) int {
	adx, ady := abs(dx), abs(dy)
	if adx == 0 || ady == 0 {
		return (adx + ady) % 2
	}
	if adx < ady {
		return adx % 2
	}
	return ady % 2
}

// SolveP1 returns the P1 escape hatch: a proper 3-colouring computed by
// the global brute force; valid for every machine but inherently Θ(n)
// (Theorem 9).
func (p *Problem) SolveP1(t *grid.Torus) ([]Label, *local.Rounds, error) {
	rounds := &local.Rounds{}
	rounds.Add(t.NX()/2 + t.NY()/2)
	colors, ok := threeColorTorus(t)
	if !ok {
		return nil, nil, errors.New("lm: no 3-colouring exists")
	}
	labels := make([]Label, t.N())
	for v := range labels {
		labels[v] = Label{P1: true, Color: colors[v]}
	}
	return labels, rounds, nil
}

// threeColorTorus produces a proper 3-colouring directly when a side is
// divisible by 3 and by backtracking otherwise.
func threeColorTorus(t *grid.Torus) ([]int, bool) {
	n := t.N()
	colors := make([]int, n)
	if t.NX()%3 == 0 {
		for v := 0; v < n; v++ {
			x, y := t.XY(v)
			colors[v] = (x+y)%3 + 1
		}
		return colors, true
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for c := 1; c <= 3; c++ {
			ok := true
			for port := 0; port < 4; port++ {
				u := t.Neighbor(v, port)
				if (u < v || colors[u] != 0) && colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
				colors[v] = 0
			}
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	return colors, true
}
