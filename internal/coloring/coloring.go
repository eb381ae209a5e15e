// Package coloring implements the classic distributed symmetry-breaking
// toolbox the paper builds on: Cole–Vishkin 3-colouring of directed cycles
// [13], Linial's colour reduction for bounded-degree graphs [30], greedy
// colour reduction, and maximal independent sets obtained by sweeping
// colour classes. Together these yield the problem-independent component
// S_k of the paper's normal form (§5, §7): a maximal independent set of
// the k-th power of the grid ("anchors") in O(log* n) rounds.
//
// All functions account their exact round complexity through a
// *local.Rounds accumulator, including the multiplicative overhead of
// simulating power graphs on the underlying torus.
package coloring

import (
	"fmt"
	"math/bits"

	"lclgrid/internal/grid"
	"lclgrid/internal/local"
	"lclgrid/internal/logstar"
)

// --- Cole–Vishkin on directed cycles ------------------------------------

// cvBound returns the colour-space bound after one Cole–Vishkin step
// applied to colours in [0, m).
func cvBound(m int) int {
	if m <= 6 {
		return m
	}
	L := logstar.Log2Ceil(m)
	return 2 * L
}

// CVIterations returns the number of Cole–Vishkin iterations needed to
// reduce a colour space of size m to at most 6 colours. All nodes compute
// this locally from n, so they stop simultaneously.
func CVIterations(m int) int {
	it := 0
	for m > 6 {
		m = cvBound(m)
		it++
	}
	return it
}

// ThreeColorCycle computes a proper 3-colouring of the directed cycle c
// (a 1-dimensional torus; port 0 = successor) from unique identifiers in
// [1, idSpace], in O(log* n) rounds: CVIterations(idSpace) reduction
// rounds to reach 6 colours, then 3 rounds to remove colours 5, 4, 3.
func ThreeColorCycle(c *grid.Torus, ids []int, idSpace int, r *local.Rounds) []int {
	n := c.N()
	if n < 3 {
		panic("coloring: cycle too short")
	}
	colors := make([]int, n)
	copy(colors, ids)

	iters := CVIterations(idSpace + 1)
	next := make([]int, n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			pred := c.Neighbor(v, 1)
			next[v] = cvStep(colors[v], colors[pred])
		}
		copy(colors, next)
	}
	if r != nil {
		r.Add(iters)
	}

	// Shift down from 6 to 3 colours: one colour class per round.
	for drop := 5; drop >= 3; drop-- {
		for v := 0; v < n; v++ {
			if colors[v] != drop {
				next[v] = colors[v]
				continue
			}
			succ, pred := c.Neighbor(v, 0), c.Neighbor(v, 1)
			next[v] = freeColor3(colors[succ], colors[pred])
		}
		copy(colors, next)
	}
	if r != nil {
		r.Add(3)
	}
	return colors
}

// cvStep maps the node colour and its predecessor's colour to the new
// colour 2i+b, where i is the lowest bit position at which they differ and
// b the node's bit there.
func cvStep(own, pred int) int {
	diff := own ^ pred
	if diff == 0 {
		panic("coloring: Cole-Vishkin step on equal colours (not a proper colouring)")
	}
	i := bits.TrailingZeros(uint(diff))
	b := (own >> i) & 1
	return 2*i + b
}

// freeColor3 returns the smallest colour in {0,1,2} different from a and b.
func freeColor3(a, b int) int {
	for c := 0; c < 3; c++ {
		if c != a && c != b {
			return c
		}
	}
	panic("unreachable")
}

// --- Linial colour reduction on bounded-degree graphs --------------------

// linialParams returns the polynomial degree d and prime q that minimise
// the post-reduction colour space q² for one Linial step on a colour space
// of size m with maximum degree maxDeg. The constraints are q > maxDeg·d
// (so a good evaluation point exists) and q^(d+1) >= m (so every colour
// fits in d+1 base-q digits). The iterated fixpoint is at most
// NextPrime(2·maxDeg)², i.e. O(Δ²) colours.
//
// For each d the candidate is the smallest prime q > maxDeg·d with
// q^(d+1) >= m. The search starts at max(maxDeg·d, r−1), where
// r = intRoot(m, d+1) is the smallest integer with r^(d+1) >= m: since
// q^(d+1) >= m exactly when q >= r, the candidate is the first prime
// above that start, NextPrime(max(maxDeg·d, r−1)). That is the prime a
// walk up the primes from maxDeg·d stops at, and the loop bound, the
// tie rule (the smaller d keeps a tie) and the stopping rule are the
// walk's, so every (d, q) is the same. Only the cost changes: one
// prime gap instead of every prime below m^(1/(d+1)).
func linialParams(m, maxDeg int) (d, q int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	bestD, bestQ := 0, 0
	for dd := 1; ; dd++ {
		if bestQ > 0 && maxDeg*dd >= bestQ {
			break // larger d cannot beat the current best q
		}
		qq := logstar.NextPrime(max(maxDeg*dd, intRoot(m, dd+1)-1))
		if bestQ == 0 || qq < bestQ {
			bestD, bestQ = dd, qq
		}
	}
	return bestD, bestQ
}

// intRoot returns the smallest integer r >= 1 with r^e >= m, i.e.
// ⌈m^(1/e)⌉ for m >= 1, by bisection in integers (a float root can be
// off by one near perfect powers).
func intRoot(m, e int) int {
	lo, hi := 1, max(m, 1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if powAtLeast(mid, e, m) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// powAtLeast reports whether q^e >= m for q >= 1, without overflow: the
// product is only formed while it stays below m.
func powAtLeast(q, e, m int) bool {
	p := 1
	for i := 0; i < e; i++ {
		if p > (m-1)/q {
			return true // p·q > m−1
		}
		p *= q
	}
	return p >= m
}

// LinialColor computes a proper colouring of g with O(Δ²) colours (at
// most NextPrime(2Δ)²), starting from unique identifiers in [1, idSpace],
// using iterated Linial colour reduction. One communication round per
// iteration; the iteration count is O(log* idSpace) and is derived from
// idSpace alone so that all nodes stop simultaneously.
//
// It returns the colouring and the size of the final colour space.
func LinialColor(g local.Graph, ids []int, idSpace int, r *local.Rounds) ([]int, int) {
	n := g.N()
	maxDeg := local.MaxDegree(g)
	colors := make([]int, n)
	copy(colors, ids)
	m := idSpace + 1

	rounds := 0
	for {
		d, q := linialParams(m, maxDeg)
		if q*q >= m {
			// No further progress possible.
			break
		}
		colors = linialStep(g, colors, maxDeg, d, q, maxDigitTable)
		m = q * q
		rounds++
	}
	if r != nil {
		r.Add(rounds)
	}
	return colors, m
}

// maxDigitTable bounds linialStep's per-round digit table, in digits:
// 4 MiB of uint32s, about 200k nodes at d = 4. At the 2^20-node request
// bound a full table would raise a solve's peak RSS by about 70%.
const maxDigitTable = 1 << 20

// linialStep performs one colour-reduction round: every node picks its
// new colour with FirstSeparating, the choice rule a windowed evaluator
// applies to single nodes. When the graph's n·(d+1) digits fit in
// maxTable, every colour is converted to its base-q digits once per
// round into a table; otherwise each node converts its own and its
// neighbours' colours as it visits them. A digit is below q, and a round
// runs only while q² < m, so q < 2^32 and digits fit a uint32: the
// preconditions of FirstSeparating.
func linialStep(g local.Graph, colors []int, maxDeg, d, q, maxTable int) []int {
	n := g.N()
	k := d + 1
	var table []uint32
	if n*k <= maxTable {
		table = make([]uint32, n*k)
		for v, c := range colors {
			ToDigits(c, q, table[v*k:(v+1)*k])
		}
	}
	next := make([]int, n)
	buf := make([]uint32, (maxDeg+1)*k)
	for v := 0; v < n; v++ {
		// Segment 0 holds the node's digits, segment i its (i-1)-th
		// neighbour's.
		deg := g.Degree(v)
		for i, u := 0, v; i <= deg; i++ {
			if i > 0 {
				u = g.Neighbor(v, i-1)
			}
			if table != nil {
				copy(buf[i*k:(i+1)*k], table[u*k:(u+1)*k])
			} else {
				ToDigits(colors[u], q, buf[i*k:(i+1)*k])
			}
		}
		c := FirstSeparating(buf[:(deg+1)*k], k, q)
		if c < 0 {
			panic(fmt.Sprintf("coloring: no good evaluation point at node %d (q=%d, d=%d)", v, q, d))
		}
		next[v] = c
	}
	return next
}

// FirstSeparating is the choice rule of one Linial step, shared by the
// full-graph LinialColor and by windowed evaluators that replay single
// nodes' choices (see LinialSchedule). digits holds the node's k = d+1
// base-q digits (ToDigits) at [0, k) and each neighbour's at the
// following k-digit segments. It returns x*q + p(x) for the smallest
// evaluation point x at which the node's polynomial p differs from every
// neighbour's, or -1 when no x in [0, q) separates them, which cannot
// happen for a proper colouring with q > maxDeg·d.
//
// It requires q < 2^32 and every digit below q, which ToDigits and the
// schedule guarantee (a round runs only while q² < m, an int). x = 0 is
// read from the constant digits, since p(0) is digits[0]; every other
// point goes through evalPoly.
func FirstSeparating(digits []uint32, k, q int) int {
	tied := false
	for j := k; j < len(digits) && !tied; j += k {
		tied = digits[j] == digits[0]
	}
	if !tied {
		return int(digits[0])
	}
	uq := uint64(q)
candidates:
	for x := uint64(1); x < uq; x++ {
		pv := evalPoly(digits[:k], x, uq)
		for j := k; j < len(digits); j += k {
			if evalPoly(digits[j:j+k], x, uq) == pv {
				continue candidates
			}
		}
		return int(x*uq + pv)
	}
	return -1
}

// ToDigits writes the base-q digits of c into out (least significant
// first): the polynomial FirstSeparating evaluates. It panics when c
// needs more than len(out) digits.
func ToDigits(c, q int, out []uint32) {
	for i := range out {
		out[i] = uint32(c % q)
		c /= q
	}
	if c != 0 {
		panic("coloring: colour does not fit in digit budget")
	}
}

// evalPoly evaluates the polynomial with the given coefficients (degree
// ordered low to high) at x over F_q. It requires q < 2^32 and x and
// every coefficient below q. Horner's rule runs unreduced while the
// accumulator stays below 2^32, so acc·x + c < 2^64 never overflows, and
// reduces mod q only when it reaches 2^32 and once at the end. At the
// schedules' d = 2 levels no evaluation reduces mid-loop; at (7, 37) and
// (5, 127) only evaluations at x ≥ 15 and x ≥ 32 can, and choices are
// almost all made at far smaller x.
func evalPoly(coeffs []uint32, x, q uint64) uint64 {
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = acc*x + uint64(coeffs[i])
		if acc >= 1<<32 {
			acc %= q
		}
	}
	return acc % q
}

// LinialSchedule returns the (d, q) parameter pairs the LinialColor
// fixpoint iteration uses for the given identifier space and degree
// bound, plus the final colour-space size. It mirrors LinialColor's loop
// exactly (same linialParams, same stopping rule), which is what lets a
// windowed evaluator replay individual colour choices for single nodes
// with FirstSeparating without materialising the full-graph colouring.
func LinialSchedule(idSpace, maxDeg int) (params [][2]int, finalColors int) {
	m := idSpace + 1
	var out [][2]int
	for {
		d, q := linialParams(m, maxDeg)
		if q*q >= m {
			return out, m
		}
		out = append(out, [2]int{d, q})
		m = q * q
	}
}

// --- Greedy reduction and MIS sweeps -------------------------------------

// GreedyReduce reduces a proper colouring with colour space [0, from) to
// the colour space [0, target), where target must be at least Δ+1. One
// colour class acts per round (classes are independent sets, so
// simultaneous recolouring is safe); from-target rounds total.
func GreedyReduce(g local.Graph, colors []int, from, target int, r *local.Rounds) []int {
	maxDeg := local.MaxDegree(g)
	if target < maxDeg+1 {
		panic(fmt.Sprintf("coloring: target %d < Δ+1 = %d", target, maxDeg+1))
	}
	out := make([]int, len(colors))
	copy(out, colors)
	order, starts := colorClasses(out, from)
	taken := make([]bool, target)
	for c := from - 1; c >= target; c-- {
		for _, v := range order[starts[c]:starts[c+1]] {
			out[v] = smallestFree(g, out, int(v), taken)
		}
	}
	if r != nil {
		r.Add(from - target)
	}
	return out
}

// smallestFree returns the smallest colour in [0, len(taken)) not used by
// any neighbour of v. taken is scratch space, all false on entry and on
// return.
func smallestFree(g local.Graph, colors []int, v int, taken []bool) int {
	deg := g.Degree(v)
	for i := 0; i < deg; i++ {
		if c := colors[g.Neighbor(v, i)]; c < len(taken) {
			taken[c] = true
		}
	}
	free := -1
	for c := range taken {
		if !taken[c] && free < 0 {
			free = c
		}
		taken[c] = false
	}
	if free < 0 {
		panic("coloring: no free colour (degree bound violated)")
	}
	return free
}

// MISFromColoring computes a maximal independent set of g by sweeping the
// colour classes of a proper colouring in increasing order: a node joins
// when its round arrives and no neighbour has joined. numColors rounds.
func MISFromColoring(g local.Graph, colors []int, numColors int, r *local.Rounds) []bool {
	inSet := make([]bool, g.N())
	order, _ := colorClasses(colors, numColors)
	// The classes act in increasing colour order, so the sweep is one
	// pass over order.
	for _, v32 := range order {
		v := int(v32)
		join := true
		for i, deg := 0, g.Degree(v); i < deg; i++ {
			if inSet[g.Neighbor(v, i)] {
				join = false
				break
			}
		}
		if join {
			inSet[v] = true
		}
	}
	if r != nil {
		r.Add(numColors)
	}
	return inSet
}

// colorClasses sorts the nodes by colour with one counting sort: class c
// is order[starts[c]:starts[c+1]], its nodes in increasing index order.
func colorClasses(colors []int, numColors int) (order []int32, starts []int) {
	starts = make([]int, numColors+1)
	for _, c := range colors {
		if c < 0 || c >= numColors {
			panic(fmt.Sprintf("coloring: colour %d out of range [0,%d)", c, numColors))
		}
		starts[c]++
	}
	for c := 1; c <= numColors; c++ {
		starts[c] += starts[c-1]
	}
	// starts[c] is now the end of class c; filling each class from its
	// end, in decreasing node order, leaves it at its start.
	order = make([]int32, len(colors))
	for v := len(colors) - 1; v >= 0; v-- {
		c := colors[v]
		starts[c]--
		order[starts[c]] = int32(v)
	}
	return order, starts
}

// --- Anchors: the problem-independent component S_k ----------------------

// Anchors computes a maximal independent set of the k-th power of the
// torus t under the given norm — the anchor set used by the paper's
// normal-form algorithms (§5, §7). The algorithm colours the power graph
// with Linial reduction and sweeps colour classes; every power-graph round
// is accounted with the simulation overhead on t. Identifiers must lie in
// [1, t.N()]; use AnchorsIDSpace for larger identifier spaces.
func Anchors(t *grid.Torus, k int, norm grid.Norm, ids []int, r *local.Rounds) []bool {
	return AnchorsIDSpace(t, k, norm, ids, t.N(), r)
}

// AnchorsIDSpace is Anchors for identifiers drawn from [1, idSpace]; it
// is used when a subgraph (e.g. a single grid row) runs the algorithm
// with the global identifier assignment.
func AnchorsIDSpace(t *grid.Torus, k int, norm grid.Norm, ids []int, idSpace int, r *local.Rounds) []bool {
	p := grid.NewPower(t, k, norm)
	var inner local.Rounds
	colors, m := LinialColor(p, ids, idSpace, &inner)
	set := MISFromColoring(p, colors, m, &inner)
	if r != nil {
		r.AddSimulated(inner.Total(), p.SimulationOverhead())
	}
	return set
}

// MISRoundsUpperBound returns the deterministic round bound of Anchors for
// a given torus size and power, for reporting purposes: the Linial
// iteration count plus the sweep length, times the simulation overhead.
func MISRoundsUpperBound(t *grid.Torus, k int, norm grid.Norm) int {
	// Every node of the power graph has degree len(BallOffsets).
	maxDeg := len(t.BallOffsets(k, norm))
	m := t.N() + 1
	iters := 0
	for {
		_, q := linialParams(m, maxDeg)
		if q*q >= m {
			break
		}
		m = q * q
		iters++
	}
	return (iters + m) * grid.SimulationOverhead(t.Dim(), k, norm)
}

// --- Verification helpers -------------------------------------------------

// IsProperColoring reports whether colors is a proper vertex colouring of
// g, returning an offending edge if not.
func IsProperColoring(g local.Graph, colors []int) (bool, [2]int) {
	for v := 0; v < g.N(); v++ {
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if colors[u] == colors[v] {
				return false, [2]int{v, u}
			}
		}
	}
	return true, [2]int{}
}

// IsMIS reports whether set is a maximal independent set of g: no two
// adjacent members, and every non-member has a member neighbour.
func IsMIS(g local.Graph, set []bool) error {
	for v := 0; v < g.N(); v++ {
		dominated := set[v]
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if set[u] {
				if set[v] {
					return fmt.Errorf("adjacent members %d and %d", v, u)
				}
				dominated = true
			}
		}
		if !dominated {
			return fmt.Errorf("node %d neither in set nor dominated", v)
		}
	}
	return nil
}
