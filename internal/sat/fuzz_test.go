package sat

import "testing"

// dpllRef is a deliberately naive DPLL used as the reference oracle for
// differential fuzzing: unit propagation plus chronological branching on
// the first unassigned variable, with copied assignments instead of an
// undo trail. It shares no code with the CDCL solver under test.
// assign: 0 unassigned, 1 true, -1 false.
func dpllRef(clauses [][]Lit, assign []int8) bool {
	for changed := true; changed; {
		changed = false
		for _, c := range clauses {
			unassigned, sat := 0, false
			var unit Lit
			for _, l := range c {
				switch v := assign[l.Var()]; {
				case v == 0:
					unassigned++
					unit = l
				case (v == 1) == l.Positive():
					sat = true
				}
				if sat {
					break
				}
			}
			if sat {
				continue
			}
			if unassigned == 0 {
				return false
			}
			if unassigned == 1 {
				if unit.Positive() {
					assign[unit.Var()] = 1
				} else {
					assign[unit.Var()] = -1
				}
				changed = true
			}
		}
	}
	branch := -1
	for v := range assign {
		if assign[v] == 0 {
			branch = v
			break
		}
	}
	if branch < 0 {
		// Fully assigned with no falsified clause found above.
		return true
	}
	for _, val := range []int8{1, -1} {
		cp := append([]int8(nil), assign...)
		cp[branch] = val
		if dpllRef(clauses, cp) {
			return true
		}
	}
	return false
}

// decodeCNF turns fuzz bytes into a small CNF. Byte 0 picks the variable
// count (1..12); each following byte is a literal (b>>1 mod n, sign b&1)
// except 0xFF, which terminates the current clause. Clauses and widths
// are capped to keep the reference oracle cheap.
func decodeCNF(data []byte) (n int, clauses [][]Lit) {
	if len(data) == 0 {
		return 0, nil
	}
	n = 1 + int(data[0])%12
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0xFF {
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				cur = nil
				if len(clauses) == 48 {
					break
				}
			}
			continue
		}
		if len(cur) < 6 {
			v := int(b>>1) % n
			if b&1 == 0 {
				cur = append(cur, Pos(v))
			} else {
				cur = append(cur, Neg(v))
			}
		}
	}
	if len(cur) > 0 && len(clauses) < 48 {
		clauses = append(clauses, cur)
	}
	return n, clauses
}

// FuzzSATSolver differentially fuzzes the CDCL solver against the naive
// DPLL reference: answers must match, SAT models must satisfy every
// clause, and after unit clauses are added to the searched solver a
// re-solve must match DPLL on the extended formula.
func FuzzSATSolver(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0xFF, 1, 3, 0xFF, 5, 0xFF})                   // mixed units and binaries
	f.Add([]byte{2, 0, 0xFF, 1, 0xFF})                                  // x0 ∧ ¬x0: UNSAT
	f.Add([]byte{8, 0, 2, 4, 0xFF, 1, 3, 0xFF, 5, 7, 9, 0xFF, 6, 0xFF}) // wider mix
	f.Add([]byte{12, 0, 3, 0xFF, 2, 5, 0xFF, 4, 7, 0xFF, 6, 9, 0xFF, 8, 11, 0xFF, 10, 1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, clauses := decodeCNF(data)
		if n == 0 {
			return
		}
		want := dpllRef(clauses, make([]int8, n))

		s := NewSolver(n)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		if got != want {
			t.Fatalf("CDCL=%v DPLL=%v on n=%d clauses=%v", got, want, n, clauses)
		}
		if got {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) == l.Positive() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("model violates clause %v (n=%d clauses=%v)", c, n, clauses)
				}
			}
		}

		// Derive up to two unit clauses from the tail of the input, add
		// them after the search, and cross-check the re-solve on the same
		// solver instance.
		var units []Lit
		for i := 0; i < 2 && i < len(data); i++ {
			b := data[len(data)-1-i]
			if b == 0xFF {
				continue
			}
			v := int(b>>1) % n
			if b&1 == 0 {
				units = append(units, Pos(v))
			} else {
				units = append(units, Neg(v))
			}
		}
		if len(units) == 0 {
			return
		}
		extended := append([][]Lit(nil), clauses...)
		for _, u := range units {
			extended = append(extended, []Lit{u})
			s.AddClause(u)
		}
		wantExtended := dpllRef(extended, make([]int8, n))
		if got := s.Solve(); got != wantExtended {
			t.Fatalf("re-solve after AddClause=%v DPLL=%v on n=%d clauses=%v units=%v", got, wantExtended, n, clauses, units)
		}
	})
}
