package coloring

import (
	"fmt"
	"testing"

	"lclgrid/internal/grid"
	"lclgrid/internal/local"
	"lclgrid/internal/logstar"
)

func TestThreeColorCycle(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 63, 128, 1000} {
		for _, seed := range []int64{1, 2, 3} {
			c := grid.Cycle(n)
			ids := local.PermutedIDs(n, seed)
			var r local.Rounds
			colors := ThreeColorCycle(c, ids, n, &r)
			for v := 0; v < n; v++ {
				if colors[v] < 0 || colors[v] > 2 {
					t.Fatalf("n=%d: colour %d out of range", n, colors[v])
				}
			}
			if ok, e := IsProperColoring(c, colors); !ok {
				t.Fatalf("n=%d seed=%d: improper colouring at edge %v", n, seed, e)
			}
			if r.Total() != CVIterations(n+1)+3 {
				t.Errorf("n=%d: rounds=%d, want %d", n, r.Total(), CVIterations(n+1)+3)
			}
		}
	}
}

func TestThreeColorCycleAdversarialIDs(t *testing.T) {
	n := 256
	c := grid.Cycle(n)
	var r local.Rounds
	colors := ThreeColorCycle(c, local.ReversedIDs(n), n, &r)
	if ok, e := IsProperColoring(c, colors); !ok {
		t.Fatalf("improper colouring at edge %v", e)
	}
}

func TestCVIterationsGrowsLikeLogStar(t *testing.T) {
	// Round counts must grow very slowly (log*): the whole range up to
	// 2^30 stays within a handful of iterations, and is monotone.
	if CVIterations(1<<30) > 8 {
		t.Errorf("CVIterations(2^30) = %d, too large", CVIterations(1<<30))
	}
	if CVIterations(16) >= CVIterations(1<<30) {
		// weak monotonicity sanity: larger space needs at least as many.
		t.Errorf("iteration count not increasing: %d vs %d", CVIterations(16), CVIterations(1<<30))
	}
}

// cvProc runs Cole–Vishkin on the message-passing simulator for
// cross-validation: each round it sends its colour to its successor and
// steps on the colour received from its predecessor.
type cvProc struct {
	color int
	iters int
	done  int
}

func (p *cvProc) Step(round int, inbox []any) ([]any, bool) {
	if round > 1 {
		p.color = cvStep(p.color, inbox[1].(int))
		p.done++
	}
	if p.done == p.iters {
		return nil, true
	}
	// Send colour to successor (port 0); it arrives on their port 1.
	return []any{p.color, nil}, false
}

func TestCVOnMessagePassingSimulator(t *testing.T) {
	n := 100
	c := grid.Cycle(n)
	ids := local.PermutedIDs(n, 5)
	iters := CVIterations(n + 1)

	procs := make([]local.Proc, n)
	for v := 0; v < n; v++ {
		procs[v] = &cvProc{color: ids[v], iters: iters}
	}
	if _, err := local.Run(c, procs, 1000); err != nil {
		t.Fatal(err)
	}
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = procs[v].(*cvProc).color
		if colors[v] > 5 {
			t.Fatalf("node %d colour %d > 5 after CV iterations", v, colors[v])
		}
	}
	if ok, e := IsProperColoring(c, colors); !ok {
		t.Fatalf("simulator CV left improper colouring at %v", e)
	}

	// Cross-validate against the direct implementation (same schedule).
	direct := make([]int, n)
	copy(direct, ids)
	next := make([]int, n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			next[v] = cvStep(direct[v], direct[c.Neighbor(v, 1)])
		}
		copy(direct, next)
	}
	for v := 0; v < n; v++ {
		if direct[v] != colors[v] {
			t.Fatalf("node %d: simulator=%d direct=%d", v, colors[v], direct[v])
		}
	}
}

func TestLinialColorTorus(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		g := grid.Square(n)
		ids := local.PermutedIDs(g.N(), int64(n))
		var r local.Rounds
		colors, m := LinialColor(g, ids, g.N(), &r)
		if ok, e := IsProperColoring(g, colors); !ok {
			t.Fatalf("n=%d: improper at %v", n, e)
		}
		// Δ=4 ⇒ final space at most NextPrime(2·4)² = 121.
		if m > 121 && m > g.N()+1 {
			t.Errorf("n=%d: final colour space %d too large", n, m)
		}
		for _, c := range colors {
			if c < 0 || c >= m {
				t.Fatalf("colour %d outside space %d", c, m)
			}
		}
		// Reduction rounds happen only when the ID space exceeds the
		// O(Δ²) fixpoint (121 for Δ=4).
		if g.N()+1 > 121 && r.Total() == 0 {
			t.Error("expected at least one reduction round")
		}
	}
}

func TestLinialColorPowerGraph(t *testing.T) {
	g := grid.Square(12)
	p := grid.NewPower(g, 3, grid.L1) // Δ = 24
	ids := local.PermutedIDs(p.N(), 7)
	colors, m := LinialColor(p, ids, p.N(), nil)
	if ok, e := IsProperColoring(p, colors); !ok {
		t.Fatalf("improper at %v", e)
	}
	if want := logstar.NextPrime(48) * logstar.NextPrime(48); m > want {
		t.Errorf("final space %d > %d", m, want)
	}
}

func TestGreedyReduce(t *testing.T) {
	g := grid.Square(10)
	ids := local.PermutedIDs(g.N(), 11)
	colors, m := LinialColor(g, ids, g.N(), nil)
	var r local.Rounds
	reduced := GreedyReduce(g, colors, m, 5, &r)
	if ok, e := IsProperColoring(g, reduced); !ok {
		t.Fatalf("improper after reduction at %v", e)
	}
	for _, c := range reduced {
		if c < 0 || c >= 5 {
			t.Fatalf("colour %d outside target palette", c)
		}
	}
	if r.Total() != m-5 {
		t.Errorf("rounds = %d, want %d", r.Total(), m-5)
	}
}

func TestGreedyReduceRejectsImpossibleTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for target < Δ+1")
		}
	}()
	g := grid.Square(5)
	GreedyReduce(g, make([]int, g.N()), 10, 4, nil)
}

func TestMISFromColoring(t *testing.T) {
	g := grid.Square(9)
	ids := local.PermutedIDs(g.N(), 13)
	colors, m := LinialColor(g, ids, g.N(), nil)
	var r local.Rounds
	set := MISFromColoring(g, colors, m, &r)
	if err := IsMIS(g, set); err != nil {
		t.Fatal(err)
	}
	if r.Total() != m {
		t.Errorf("rounds = %d, want %d", r.Total(), m)
	}
}

func TestAnchors(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		norm grid.Norm
	}{
		{12, 1, grid.L1}, {12, 2, grid.L1}, {16, 3, grid.L1}, {12, 2, grid.LInf},
	} {
		g := grid.Square(tc.n)
		ids := local.PermutedIDs(g.N(), int64(tc.n*10+tc.k))
		var r local.Rounds
		anchors := Anchors(g, tc.k, tc.norm, ids, &r)
		p := grid.NewPower(g, tc.k, tc.norm)
		if err := IsMIS(p, anchors); err != nil {
			t.Fatalf("n=%d k=%d %v: %v", tc.n, tc.k, tc.norm, err)
		}
		// Explicit distance form of the MIS property.
		for u := 0; u < g.N(); u++ {
			if !anchors[u] {
				continue
			}
			for v := u + 1; v < g.N(); v++ {
				if anchors[v] && g.Dist(u, v, tc.norm) <= tc.k {
					t.Fatalf("anchors %d,%d at distance <= k", u, v)
				}
			}
		}
		if r.Total() == 0 {
			t.Error("anchors should cost rounds")
		}
	}
}

func TestAnchorsRoundsScaledByOverhead(t *testing.T) {
	g := grid.Square(12)
	ids := local.SequentialIDs(g.N())
	var r1, r3 local.Rounds
	Anchors(g, 1, grid.L1, ids, &r1)
	Anchors(g, 3, grid.L1, ids, &r3)
	if r3.Total() <= r1.Total() {
		t.Errorf("k=3 rounds (%d) should exceed k=1 rounds (%d)", r3.Total(), r1.Total())
	}
}

func TestMISRoundsUpperBound(t *testing.T) {
	g := grid.Square(16)
	b := MISRoundsUpperBound(g, 1, grid.L1)
	if b <= 0 {
		t.Error("bound must be positive")
	}
	var r local.Rounds
	Anchors(g, 1, grid.L1, local.PermutedIDs(g.N(), 3), &r)
	if r.Total() > b {
		t.Errorf("actual rounds %d exceed reported bound %d", r.Total(), b)
	}
}

func TestIsMISDetectsViolations(t *testing.T) {
	g := grid.Square(4)
	all := make([]bool, g.N())
	if err := IsMIS(g, all); err == nil {
		t.Error("empty set should not be maximal")
	}
	for i := range all {
		all[i] = true
	}
	if err := IsMIS(g, all); err == nil {
		t.Error("full set should not be independent")
	}
}

// walkLinialParams is the reference search linialParams must agree
// with: for each d, start at the first prime above maxDeg·d and step up
// one prime at a time until q^(d+1) >= m.
func walkLinialParams(m, maxDeg int) (d, q int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	atLeast := func(q, e, m int) bool {
		p := 1
		for i := 0; i < e; i++ {
			p *= q
			if p >= m {
				return true
			}
		}
		return p >= m
	}
	bestD, bestQ := 0, 0
	for dd := 1; ; dd++ {
		if bestQ > 0 && maxDeg*dd >= bestQ {
			break
		}
		qq := logstar.NextPrime(maxDeg * dd)
		for !atLeast(qq, dd+1, m) {
			qq = logstar.NextPrime(qq)
		}
		if bestQ == 0 || qq < bestQ {
			bestD, bestQ = dd, qq
		}
	}
	return bestD, bestQ
}

var scheduleDegrees = []int{1, 2, 4, 8, 12, 24, 40}

func TestLinialParamsMatchesPrimeWalk(t *testing.T) {
	check := func(m, deg int) {
		t.Helper()
		d, q := linialParams(m, deg)
		wd, wq := walkLinialParams(m, deg)
		if d != wd || q != wq {
			t.Fatalf("linialParams(%d, %d) = (%d, %d), prime walk gives (%d, %d)", m, deg, d, q, wd, wq)
		}
	}
	for _, deg := range scheduleDegrees {
		for m := 0; m < 200_000; m++ {
			check(m, deg)
		}
	}
	// Around prime powers, where the integer root steps.
	for _, p := range []int{2, 3, 5, 7, 11, 13, 17, 19, 23} {
		pe := 1
		for e := 1; e <= 7; e++ {
			pe *= p
			for _, m := range []int{pe - 1, pe, pe + 1} {
				for _, deg := range scheduleDegrees {
					check(m, deg)
				}
			}
		}
	}
}

func TestIntRoot(t *testing.T) {
	big := 1_000_000_000_000
	for _, tc := range []struct{ m, e, want int }{
		{0, 2, 1}, {1, 2, 1}, {2, 2, 2}, {4, 2, 2}, {5, 2, 3},
		{27, 3, 3}, {28, 3, 4}, {big, 2, 1_000_000}, {big + 1, 2, 1_000_001},
		{big, 3, 10_000}, {big, 12, 10}, {big + 1, 12, 11}, {1 << 62, 2, 1 << 31},
	} {
		if got := intRoot(tc.m, tc.e); got != tc.want {
			t.Errorf("intRoot(%d, %d) = %d, want %d", tc.m, tc.e, got, tc.want)
		}
	}
}

// TestLinialScheduleGolden pins schedules of the tori /v1/labels serves
// (10^10 to 10^12 nodes, power-graph degrees 4, 12, 24), as the prime
// walk produced them.
func TestLinialScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		n, deg int
		want   [][2]int
		final  int
	}{
		{1_000_000_000_000, 4, [][2]int{{7, 37}, {2, 13}, {2, 11}}, 121},
		{1_000_000_000_000, 12, [][2]int{{6, 73}, {2, 29}}, 841},
		{1_000_000_000_000, 24, [][2]int{{5, 127}, {2, 53}}, 2809},
		{10_000_000_000, 12, [][2]int{{5, 61}, {2, 29}}, 841},
	} {
		got, final := LinialSchedule(tc.n, tc.deg)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || final != tc.final {
			t.Errorf("LinialSchedule(%d, %d) = %v final %d, want %v final %d", tc.n, tc.deg, got, final, tc.want, tc.final)
		}
	}
}

// BenchmarkLinialSchedule derives the schedule of a 10^12-node torus at
// power-graph degree 12 (k = 2 under L1): the per-evaluator set-up cost
// of a /v1/labels window on the largest tori it serves.
func BenchmarkLinialSchedule(b *testing.B) {
	for b.Loop() {
		LinialSchedule(1_000_000_000_000, 12)
	}
}
