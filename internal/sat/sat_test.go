package sat

import (
	"math/rand"
	"testing"
)

func TestLit(t *testing.T) {
	l := Pos(3)
	if l.Var() != 3 || !l.Positive() {
		t.Error("Pos broken")
	}
	if l.Not() != Neg(3) || l.Not().Positive() {
		t.Error("Not broken")
	}
	if Neg(3).Not() != Pos(3) {
		t.Error("double negation broken")
	}
	if Pos(2).String() != "x2" || Neg(2).String() != "¬x2" {
		t.Error("String broken")
	}
}

func TestEmptyFormulaSAT(t *testing.T) {
	s := NewSolver(3)
	if !s.Solve() {
		t.Error("empty formula should be SAT")
	}
}

func TestUnitClauses(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(Pos(0))
	s.AddClause(Neg(1))
	if !s.Solve() {
		t.Fatal("should be SAT")
	}
	if !s.Value(0) || s.Value(1) {
		t.Error("unit assignment wrong")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := NewSolver(1)
	s.AddClause(Pos(0))
	s.AddClause(Neg(0))
	if s.Solve() {
		t.Error("x ∧ ¬x should be UNSAT")
	}
}

func TestEmptyClause(t *testing.T) {
	s := NewSolver(1)
	s.AddClause()
	if s.Solve() {
		t.Error("empty clause should be UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := NewSolver(1)
	s.AddClause(Pos(0), Neg(0))
	if !s.Solve() {
		t.Error("tautology-only formula should be SAT")
	}
}

func TestPropagationChain(t *testing.T) {
	// x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) ∧ ... forces all true.
	n := 50
	s := NewSolver(n)
	s.AddClause(Pos(0))
	for i := 0; i+1 < n; i++ {
		s.AddClause(Neg(i), Pos(i+1))
	}
	if !s.Solve() {
		t.Fatal("chain should be SAT")
	}
	for i := 0; i < n; i++ {
		if !s.Value(i) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(p, h): p pigeons into h holes, each pigeon in some hole, no two
	// pigeons share a hole. UNSAT iff p > h.
	build := func(p, h int) *Solver {
		s := NewSolver(p * h)
		v := func(i, j int) int { return i*h + j }
		for i := 0; i < p; i++ {
			lits := make([]Lit, h)
			for j := 0; j < h; j++ {
				lits[j] = Pos(v(i, j))
			}
			s.AddClause(lits...)
		}
		for j := 0; j < h; j++ {
			for i1 := 0; i1 < p; i1++ {
				for i2 := i1 + 1; i2 < p; i2++ {
					s.AddClause(Neg(v(i1, j)), Neg(v(i2, j)))
				}
			}
		}
		return s
	}
	if build(4, 4).Solve() != true {
		t.Error("PHP(4,4) should be SAT")
	}
	if build(5, 4).Solve() != false {
		t.Error("PHP(5,4) should be UNSAT")
	}
	if build(7, 6).Solve() != false {
		t.Error("PHP(7,6) should be UNSAT")
	}
}

func TestGraphColoring(t *testing.T) {
	// K4 is 4-colourable but not 3-colourable.
	solve := func(k int) bool {
		s := NewSolver(4 * k)
		v := func(node, c int) int { return node*k + c }
		for node := 0; node < 4; node++ {
			lits := make([]Lit, k)
			for c := 0; c < k; c++ {
				lits[c] = Pos(v(node, c))
			}
			s.AddClause(lits...)
		}
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				for c := 0; c < k; c++ {
					s.AddClause(Neg(v(a, c)), Neg(v(b, c)))
				}
			}
		}
		return s.Solve()
	}
	if solve(3) {
		t.Error("K4 should not be 3-colourable")
	}
	if !solve(4) {
		t.Error("K4 should be 4-colourable")
	}
}

// bruteForce decides satisfiability by enumeration (n <= ~20).
func bruteForce(n int, clauses [][]Lit) bool {
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := mask&(1<<l.Var()) != 0
				if val == l.Positive() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(5*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		want := bruteForce(n, clauses)
		s := NewSolver(n)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v, clauses=%v", trial, got, want, clauses)
		}
		if got {
			// Check the model actually satisfies all clauses.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) == l.Positive() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy clause %v", trial, c)
				}
			}
		}
	}
}

func TestHardRandom3SATSatisfiable(t *testing.T) {
	// Plant a solution to guarantee satisfiability, then solve.
	rng := rand.New(rand.NewSource(99))
	n := 150
	planted := make([]bool, n)
	for i := range planted {
		planted[i] = rng.Intn(2) == 0
	}
	s := NewSolver(n)
	for i := 0; i < 600; i++ {
		c := make([]Lit, 3)
		for {
			ok := false
			for j := range c {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
				if planted[c[j].Var()] == c[j].Positive() {
					ok = true
				}
			}
			if ok {
				break
			}
		}
		s.AddClause(c...)
	}
	if !s.Solve() {
		t.Fatal("planted instance must be SAT")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := NewSolver(20)
	// An unsatisfiable PHP-style core to force conflicts.
	for i := 0; i < 5; i++ {
		s.AddClause(Pos(4*i), Pos(4*i+1))
		s.AddClause(Neg(4*i), Neg(4*i+1))
		s.AddClause(Pos(4*i), Neg(4*i+1))
	}
	s.Solve()
	if s.Stats.Decisions == 0 && s.Stats.Conflicts == 0 {
		t.Error("expected some search activity")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(Pos(0), Pos(0), Pos(1))
	if !s.Solve() {
		t.Fatal("should be SAT")
	}
	if !s.Value(0) && !s.Value(1) {
		t.Error("clause not satisfied")
	}
}

func TestNumClausesAndVars(t *testing.T) {
	s := NewSolver(3)
	s.AddClause(Pos(0), Pos(1))
	s.AddClause(Neg(1), Pos(2))
	if s.NumVars() != 3 {
		t.Error("NumVars wrong")
	}
	if s.NumClauses() != 2 {
		t.Errorf("NumClauses = %d, want 2", s.NumClauses())
	}
}

// TestBinaryPropagationEquivalence checks that the inline binary
// implication lists decide exactly like the long-clause watch path: every
// random formula is solved twice, once as-is (binary clauses inline) and
// once with each binary clause padded to length 3 by a fresh literal that
// a unit clause forces false (so it is stored and watched as a long
// clause). The two solvers must agree, and agree with brute force.
func TestBinaryPropagationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(7)
		m := 2 + rng.Intn(6*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}

		inline := NewSolver(n)
		for _, c := range clauses {
			inline.AddClause(c...)
		}

		padded := NewSolver(n + 1)
		pad := n // always-false padding variable
		padded.AddClause(Neg(pad))
		for _, c := range clauses {
			if len(c) == 2 {
				padded.AddClause(c[0], c[1], Pos(pad))
			} else {
				padded.AddClause(c...)
			}
		}

		want := bruteForce(n, clauses)
		if got := inline.Solve(); got != want {
			t.Fatalf("trial %d: inline binary path = %v, brute force = %v (clauses %v)", trial, got, want, clauses)
		}
		if got := padded.Solve(); got != want {
			t.Fatalf("trial %d: padded long-clause path = %v, brute force = %v (clauses %v)", trial, got, want, clauses)
		}
	}
}

// TestReduceDBKeepsReasonClauses pins the locked-clause invariant: a
// learnt clause that is currently the reason for an assignment survives
// reduction no matter how bad its LBD/activity score is.
func TestReduceDBKeepsReasonClauses(t *testing.T) {
	s := NewSolver(9)
	// (x0 ∨ x1 ∨ x2) will become the reason for x0 once x1, x2 are
	// falsified at decision level 1.
	s.AddClause(Pos(0), Pos(1), Pos(2))
	// Two more long clauses that stay untouched by the propagation below.
	s.AddClause(Pos(3), Pos(4), Pos(5))
	s.AddClause(Pos(6), Pos(7), Pos(8))

	s.lim = append(s.lim, len(s.trail))
	s.enqueue(Neg(1), reasonNone)
	s.enqueue(Neg(2), reasonNone)
	if confl := s.propagate(); confl != conflNone {
		t.Fatalf("unexpected conflict %d", confl)
	}
	if s.assign[0] != lTrue || s.reason[0] != 0 {
		t.Fatalf("x0 not propagated from clause 0 (assign %d, reason %d)", s.assign[0], s.reason[0])
	}

	// Masquerade all three as learnt clauses; the locked one gets the
	// worst score so unchecked reduction would delete it first.
	for ci := range s.clauses {
		s.clauses[ci].learnt = true
	}
	s.clauses[0].lbd = 30
	s.clauses[1].lbd = 20
	s.clauses[2].lbd = 10
	s.numLearnts = 3

	s.reduceDB()

	if s.clauses[0].lits == nil {
		t.Fatal("reduceDB deleted a reason clause")
	}
	if !s.locked(0) {
		t.Fatal("clause 0 should still be the reason for x0")
	}
	// Of the two unlocked candidates, the worse-scored one must be gone.
	if s.clauses[1].lits != nil {
		t.Error("reduceDB kept the worst unlocked clause")
	}
	if s.clauses[2].lits == nil {
		t.Error("reduceDB deleted the better-scored unlocked clause")
	}
	if s.Stats.Deleted != 1 || s.numLearnts != 2 {
		t.Errorf("Deleted = %d, numLearnts = %d; want 1, 2", s.Stats.Deleted, s.numLearnts)
	}
	// The solver must still function after reduction.
	s.backtrack(0)
	if !s.Solve() {
		t.Fatal("formula should be SAT after reduction")
	}
}

// TestReduceDBUnderPressure forces constant database reductions on an
// instance with real conflicts and cross-checks the result: reduction
// must never change an answer, and NumClauses must not drift when learnt
// clauses come and go.
func TestReduceDBUnderPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 120; trial++ {
		n := 6 + rng.Intn(6)
		m := 3 + rng.Intn(7*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			width := 2 + rng.Intn(2)
			c := make([]Lit, width)
			for j := range c {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		s := NewSolver(n)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		before := s.NumClauses()
		s.maxLearnts = 1 // reduce at every opportunity
		want := bruteForce(n, clauses)
		if got := s.Solve(); got != want {
			t.Fatalf("trial %d: solver=%v brute=%v with constant reduction (clauses %v)", trial, got, want, clauses)
		}
		if s.NumClauses() != before {
			t.Fatalf("trial %d: NumClauses drifted %d -> %d across search", trial, before, s.NumClauses())
		}
	}
}

// TestIncrementalModelEnumeration drives post-search AddClause hard: all
// models of a small formula are enumerated by repeatedly blocking the
// previous model.
func TestIncrementalModelEnumeration(t *testing.T) {
	n := 4
	s := NewSolver(n)
	s.AddClause(Pos(0), Pos(1), Pos(2), Pos(3)) // exclude all-false
	count := 0
	for s.Solve() {
		count++
		if count > 20 {
			t.Fatal("runaway enumeration")
		}
		block := make([]Lit, n)
		for v := 0; v < n; v++ {
			if s.Value(v) {
				block[v] = Neg(v)
			} else {
				block[v] = Pos(v)
			}
		}
		s.AddClause(block...)
	}
	if count != 15 {
		t.Errorf("enumerated %d models, want 15", count)
	}
}

// TestLearntMinimizationSound cross-checks that self-subsumption
// minimization never changes an answer on conflict-heavy instances, and
// that it actually fires.
func TestLearntMinimizationSound(t *testing.T) {
	totalMinimized := 0
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 150; trial++ {
		n := 8 + rng.Intn(5)
		m := 4 + rng.Intn(6*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			width := 2 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
		}
		s := NewSolver(n)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		want := bruteForce(n, clauses)
		if got := s.Solve(); got != want {
			t.Fatalf("trial %d: solver=%v brute=%v (clauses %v)", trial, got, want, clauses)
		}
		totalMinimized += s.Stats.Minimized
	}
	if totalMinimized == 0 {
		t.Error("learned-clause minimization never removed a literal across 150 conflict-heavy instances")
	}
}
