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
		colors = linialStep(g, colors, maxDeg, d, q)
		m = q * q
		rounds++
	}
	if r != nil {
		r.Add(rounds)
	}
	return colors, m
}

// linialStep performs one colour-reduction round: every node makes its
// LinialChooser choice from its own and its neighbours' colours.
func linialStep(g local.Graph, colors []int, maxDeg, d, q int) []int {
	n := g.N()
	next := make([]int, n)
	var lc LinialChooser
	nbrs := make([]int, 0, maxDeg)
	for v := 0; v < n; v++ {
		nbrs = nbrs[:0]
		for i := 0; i < g.Degree(v); i++ {
			nbrs = append(nbrs, colors[g.Neighbor(v, i)])
		}
		c := lc.Choose(colors[v], nbrs, d, q)
		if c < 0 {
			panic(fmt.Sprintf("coloring: no good evaluation point at node %d (q=%d, d=%d)", v, q, d))
		}
		next[v] = c
	}
	return next
}

// toDigits writes the base-q digits of c into out (least significant
// first).
func toDigits(c, q int, out []int) {
	for i := range out {
		out[i] = c % q
		c /= q
	}
	if c != 0 {
		panic("coloring: colour does not fit in digit budget")
	}
}

// evalPoly evaluates the polynomial with the given coefficients (degree
// ordered low to high) at x over F_q.
func evalPoly(coeffs []int, x, q int) int {
	acc := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}

// LinialSchedule returns the (d, q) parameter pairs the LinialColor
// fixpoint iteration uses for the given identifier space and degree
// bound, plus the final colour-space size. It mirrors LinialColor's loop
// exactly (same linialParams, same stopping rule), which is what lets a
// windowed evaluator replay individual colour choices for single nodes
// without materialising the full-graph colouring.
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

// LinialChooser performs single nodes' colour choices of Linial
// reduction steps. Choose takes the node's own colour and its
// neighbours' colours in the pre-step colour space and returns the
// smallest evaluation point x on which the node's polynomial differs
// from every neighbour's, encoded as x*q + p(x). linialStep makes every
// node's choice through it, so a windowed evaluator that calls it
// computes exactly the colour LinialColor does. It returns -1 when no
// evaluation point separates the node, which cannot happen for a proper
// colouring with q > maxDeg·d.
//
// The zero value is ready to use. A chooser reuses one digit buffer
// across calls, so it is not safe for concurrent use.
type LinialChooser struct {
	digits []int
}

// Choose returns the node's new colour (see LinialChooser).
func (lc *LinialChooser) Choose(own int, nbrs []int, d, q int) int {
	k := d + 1
	need := (len(nbrs) + 1) * k
	if cap(lc.digits) < need {
		lc.digits = make([]int, need)
	}
	// Digits are converted once per node: the node's at [0, k), neighbour
	// i's at [(i+1)k, (i+2)k).
	digits := lc.digits[:need]
	toDigits(own, q, digits[:k])
	for i, c := range nbrs {
		toDigits(c, q, digits[(i+1)*k:(i+2)*k])
	}
candidates:
	for x := 0; x < q; x++ {
		pv := evalPoly(digits[:k], x, q)
		for j := k; j < need; j += k {
			if evalPoly(digits[j:j+k], x, q) == pv {
				continue candidates
			}
		}
		return x*q + pv
	}
	return -1
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
	buckets := bucketize(out, from)
	for c := from - 1; c >= target; c-- {
		for _, v := range buckets[c] {
			out[v] = smallestFree(g, out, v, target)
		}
	}
	if r != nil {
		r.Add(from - target)
	}
	return out
}

// smallestFree returns the smallest colour in [0, limit) not used by any
// neighbour of v.
func smallestFree(g local.Graph, colors []int, v, limit int) int {
	deg := g.Degree(v)
	taken := make(map[int]bool, deg)
	for i := 0; i < deg; i++ {
		taken[colors[g.Neighbor(v, i)]] = true
	}
	for c := 0; c < limit; c++ {
		if !taken[c] {
			return c
		}
	}
	panic("coloring: no free colour (degree bound violated)")
}

// MISFromColoring computes a maximal independent set of g by sweeping the
// colour classes of a proper colouring in increasing order: a node joins
// when its round arrives and no neighbour has joined. numColors rounds.
func MISFromColoring(g local.Graph, colors []int, numColors int, r *local.Rounds) []bool {
	inSet := make([]bool, g.N())
	buckets := bucketize(colors, numColors)
	for c := 0; c < numColors; c++ {
		for _, v := range buckets[c] {
			join := true
			for i := 0; i < g.Degree(v); i++ {
				if inSet[g.Neighbor(v, i)] {
					join = false
					break
				}
			}
			if join {
				inSet[v] = true
			}
		}
	}
	if r != nil {
		r.Add(numColors)
	}
	return inSet
}

func bucketize(colors []int, numColors int) [][]int {
	buckets := make([][]int, numColors)
	for v, c := range colors {
		if c < 0 || c >= numColors {
			panic(fmt.Sprintf("coloring: colour %d out of range [0,%d)", c, numColors))
		}
		buckets[c] = append(buckets[c], v)
	}
	return buckets
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
	p := grid.NewPower(t, k, norm)
	maxDeg := local.MaxDegree(p)
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
	return (iters + m) * p.SimulationOverhead()
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
