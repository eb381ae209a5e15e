// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, first-UIP conflict analysis, VSIDS
// variable activities, phase saving and Luby restarts. §7 of the paper
// reduces the synthesis of normal-form algorithms to constraint
// satisfaction ("finding a proper 4-colouring of the neighbourhood graph
// can be done with modern SAT solvers in a matter of seconds"); this
// package is that solver, and it is also used to decide solvability of
// LCL tilings on small tori (the Θ(n) brute-force baseline).
//
// The hot path is tuned for the tile CSP's clause mix, which is
// dominated by binary forbidden-pair clauses, one per edge of the tile
// graph and forbidden label pair. Those are not stored at all: a pair
// constraint (AddPairConstraint) derives them during propagation from a
// graph adjacency that every problem over the graph shares and from the
// problem's short per-label lists of forbidden neighbour labels. Binary
// clauses added through AddClause, and learned ones, live in per-literal
// implication lists that are only allocated for literals that get one
// (the other literal is stored inline, no clause dereference); a true
// literal's pair-constraint implications come first, then its list.
// Long-clause watches carry a blocker literal, problem clauses share one
// arena, and learned clauses are scored by LBD and activity so the
// database can be periodically reduced. A search can be cancelled
// through its context and resumed, and clauses may be added after a
// search has run.
package sat

import (
	"context"
	"fmt"
	"sort"
)

// Lit is a literal: variable index v with sign, encoded as 2v (positive)
// or 2v+1 (negative).
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(2 * v) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(2*v + 1) }

// Var returns the variable of the literal.
func (l Lit) Var() int { return int(l) >> 1 }

// Positive reports whether the literal is positive.
func (l Lit) Positive() bool { return l&1 == 0 }

// Not returns the negation of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String implements fmt.Stringer.
func (l Lit) String() string {
	if l.Positive() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("¬x%d", l.Var())
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// Reason and conflict sentinels. Non-negative values are clause indices.
const (
	reasonNone = -1 // decision or unassigned
	reasonBin  = -2 // binary clause; the other literal is in reasonLit
	conflNone  = -1 // no conflict
	conflBin   = -2 // conflict in a binary clause; literals in binConfl
)

// clause is a stored clause of length >= 3. Binary clauses are kept
// inline in the solver's implication lists and never allocate a clause.
type clause struct {
	lits   []Lit
	act    float64 // activity (learnt clauses only)
	lbd    int32   // literal block distance at learn time
	learnt bool
}

// litLists holds one growable list per literal. A literal's list is
// allocated on its first entry, and list headers live in fixed-size
// chunks that are never moved, so a solver pays four bytes per literal
// for the ones that never get a list and never copies the headers.
type litLists[T any] struct {
	slot   []int32 // per literal: 1 + its list's number, or 0
	chunks [][][]T // list i is chunks[i/litChunk][i%litChunk]
	n      int32   // lists allocated
}

const litChunk = 1024

func newLitLists[T any](nLits int) litLists[T] {
	return litLists[T]{slot: make([]int32, nLits)}
}

// at returns l's list (nil if it has none).
func (ll *litLists[T]) at(l Lit) []T {
	if i := ll.slot[l] - 1; i >= 0 {
		return ll.chunks[i/litChunk][i%litChunk]
	}
	return nil
}

// add appends x to l's list.
func (ll *litLists[T]) add(l Lit, x T) {
	i := ll.slot[l] - 1
	if i < 0 {
		i = ll.n
		ll.n++
		if int(i/litChunk) == len(ll.chunks) {
			ll.chunks = append(ll.chunks, make([][]T, litChunk))
		}
		ll.slot[l] = i + 1
	}
	list := &ll.chunks[i/litChunk][i%litChunk]
	*list = append(*list, x)
}

// set replaces l's list, which must exist.
func (ll *litLists[T]) set(l Lit, xs []T) {
	i := ll.slot[l] - 1
	ll.chunks[i/litChunk][i%litChunk] = xs
}

// watcher is a watch-list entry for a long clause: the clause reference
// plus a blocker literal (some other literal of the clause). If the
// blocker is true the clause is satisfied and need not be dereferenced.
type watcher struct {
	cref    int32
	blocker Lit
}

// Solver is a CDCL SAT solver over a fixed set of variables. Create it
// with NewSolver, add clauses with AddClause, then call Solve or
// SolveContext. AddClause may also be called after a search (the solver
// drops back to decision level 0 first), which is how a caller blocks a
// model and re-solves.
type Solver struct {
	nVars   int
	clauses []clause          // long clauses; deleted slots are recycled via free
	free    []int32           // recycled clause slots
	arena   []Lit             // backing store of problem clauses; never reallocated
	watches litLists[watcher] // for each literal, long-clause watches
	bins    litLists[Lit]     // for each literal p, literals implied when p is true
	pairs   []pairConstraint  // implicit binary clauses, visited before bins

	numProblem int // live problem clauses of length >= 2
	numLearnts int // live learnt clauses stored in the clause database

	assign    []int8 // per variable
	level     []int32
	reason    []int32 // clause index, reasonNone, or reasonBin
	reasonLit []Lit   // other literal of a binary reason
	trail     []Lit
	lim       []int // decision-level boundaries in trail
	qhead     int
	unsat     bool // formula already unsatisfiable at level 0
	phase     []bool
	seen      []bool

	activity []float64
	varInc   float64
	heap     varHeap

	claInc     float64
	maxLearnts int // reduceDB threshold; initialized on first solve

	binConfl  [2]Lit   // scratch conflict clause for binary conflicts
	learnt    []Lit    // reusable analyze result buffer
	tmpReason [1]Lit   // scratch reason slice for binary reasons in analyze
	addSeen   []int8   // per-literal scratch for AddClause deduplication
	addBuf    []Lit    // reusable AddClause simplification buffer
	minClear  []Lit    // seen-flag cleanup list for clause minimization
	minBudget int      // antecedent-visit budget per minimization pass
	lbdSeen   []uint64 // per-level stamp for LBD computation
	lbdStamp  uint64
	reduceBuf []int32 // reusable reduceDB candidate buffer

	Stats Stats
}

// Stats collects solver statistics for reporting.
type Stats struct {
	Decisions  int
	Conflicts  int
	Propagated int
	Learned    int
	Restarts   int
	// Aborts counts SolveContext calls that returned with the context's
	// error instead of an answer — a cancelled request or an expired
	// deadline. The other counters still record everything the aborted
	// search burned.
	Aborts int
	// Minimized counts literals removed from learned clauses by
	// self-subsumption over reason clauses.
	Minimized int
	// Reductions counts learned-clause database reduction passes;
	// Deleted counts the clauses those passes removed.
	Reductions int
	Deleted    int
}

// NewSolver creates a solver over nVars variables (indices 0..nVars-1).
func NewSolver(nVars int) *Solver {
	s := &Solver{
		nVars:     nVars,
		watches:   newLitLists[watcher](2 * nVars),
		bins:      newLitLists[Lit](2 * nVars),
		addSeen:   make([]int8, 2*nVars),
		assign:    make([]int8, nVars),
		level:     make([]int32, nVars),
		reason:    make([]int32, nVars),
		reasonLit: make([]Lit, nVars),
		phase:     make([]bool, nVars),
		seen:      make([]bool, nVars),
		activity:  make([]float64, nVars),
		lbdSeen:   make([]uint64, nVars+1),
		varInc:    1,
		claInc:    1,
	}
	// Every activity starts at 0, so the identity order is already a heap.
	s.heap = varHeap{s: s, heap: make([]int, nVars), pos: make([]int, nVars), size: nVars}
	for v := 0; v < nVars; v++ {
		s.reason[v] = reasonNone
		s.heap.heap[v], s.heap.pos[v] = v, v
	}
	return s
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of live problem clauses of length >= 2
// (units become assignments, learned clauses are not counted, and
// learned-clause deletion does not disturb the count).
func (s *Solver) NumClauses() int { return s.numProblem }

// value returns the current value of a literal.
func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Positive() {
		return v
	}
	return -v
}

// AddClause adds a clause. Duplicate literals are removed and tautologies
// are dropped. It may be called before or after a search: if a search has
// run, the solver first backtracks to decision level 0 (learned clauses
// and activities are kept). An empty (or all-false after simplification
// at level 0) clause makes the formula unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	// Simplification below must only see level-0 facts.
	s.backtrack(0)
	simplified := s.addBuf[:0]
	taut := false
	for _, l := range lits {
		if l.Var() < 0 || l.Var() >= s.nVars {
			panic(fmt.Sprintf("sat: literal %v out of range", l))
		}
		if s.addSeen[l] != 0 {
			continue
		}
		if s.addSeen[l.Not()] != 0 || s.value(l) == lTrue {
			taut = true // tautology or already satisfied at level 0
			break
		}
		if s.value(l) == lFalse {
			continue // already false at level 0
		}
		s.addSeen[l] = 1
		simplified = append(simplified, l)
	}
	for _, l := range simplified {
		s.addSeen[l] = 0
	}
	s.addBuf = simplified[:0]
	if taut {
		return
	}
	switch len(simplified) {
	case 0:
		s.unsat = true
	case 1:
		if !s.enqueue(simplified[0], reasonNone) {
			s.unsat = true
		} else if s.propagate() != conflNone {
			s.unsat = true
		}
	case 2:
		s.numProblem++
		s.addBinary(simplified[0], simplified[1])
	default:
		s.numProblem++
		s.attachClause(s.arenaCopy(simplified), false)
	}
}

// arenaCopy copies a problem clause into the arena. The arena grows by
// whole new chunks, never by reallocation, so stored clauses keep
// pointing at live memory; problem clauses are never deleted.
func (s *Solver) arenaCopy(lits []Lit) []Lit {
	if cap(s.arena)-len(s.arena) < len(lits) {
		n := 2 * cap(s.arena)
		if n < 1024 {
			n = 1024
		}
		if n < len(lits) {
			n = len(lits)
		}
		s.arena = make([]Lit, 0, n)
	}
	start := len(s.arena)
	s.arena = append(s.arena, lits...)
	return s.arena[start:len(s.arena):len(s.arena)]
}

// addBinary records the binary clause (a ∨ b) in the implication lists.
// Only explicitly added and learned binaries are stored this way; the
// forbidden-pair clauses of a CSP are implied by its pair constraints.
func (s *Solver) addBinary(a, b Lit) {
	s.bins.add(a.Not(), b)
	s.bins.add(b.Not(), a)
}

// attachClause stores a clause of length >= 3 and watches its first two
// literals. Deleted slots are recycled before the arena grows.
func (s *Solver) attachClause(lits []Lit, learnt bool) int32 {
	var ci int32
	if n := len(s.free); n > 0 {
		ci = s.free[n-1]
		s.free = s.free[:n-1]
		s.clauses[ci] = clause{lits: lits, learnt: learnt}
	} else {
		ci = int32(len(s.clauses))
		if len(s.clauses) == cap(s.clauses) {
			// Double: append's 1.25× steps for large slices would copy
			// a problem's clause table several times over.
			s.clauses = append(make([]clause, 0, 2*cap(s.clauses)+64), s.clauses...)
		}
		s.clauses = append(s.clauses, clause{lits: lits, learnt: learnt})
	}
	s.watches.add(lits[0], watcher{ci, lits[1]})
	s.watches.add(lits[1], watcher{ci, lits[0]})
	return ci
}

// detachClause removes the clause's two watch entries and recycles its
// slot.
func (s *Solver) detachClause(ci int32) {
	c := s.clauses[ci].lits
	s.removeWatch(c[0], ci)
	s.removeWatch(c[1], ci)
	s.clauses[ci] = clause{}
	s.free = append(s.free, ci)
}

func (s *Solver) removeWatch(l Lit, ci int32) {
	ws := s.watches.at(l)
	for i := range ws {
		if ws[i].cref == ci {
			ws[i] = ws[len(ws)-1]
			s.watches.set(l, ws[:len(ws)-1])
			return
		}
	}
}

// enqueue assigns literal l to true with the given reason clause; it
// returns false on an immediate conflict with an existing assignment.
func (s *Solver) enqueue(l Lit, reason int32) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Positive() {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	return true
}

// enqueueBin assigns l to true with a binary reason clause (l ∨ other).
func (s *Solver) enqueueBin(l, other Lit) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Positive() {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = reasonBin
	s.reasonLit[v] = other
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the index of a
// conflicting clause, conflBin for a conflict in a binary clause (the
// literals are left in binConfl), or conflNone.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		// Binary implications first: the pair constraints' in edge
		// order, then the stored ones, whose other literal is inline.
		if p.Positive() {
			for i := range s.pairs {
				if !s.propagatePairs(&s.pairs[i], p) {
					s.qhead = len(s.trail)
					return conflBin
				}
			}
		}
		for _, imp := range s.bins.at(p) {
			switch s.value(imp) {
			case lTrue:
			case lFalse:
				s.binConfl[0], s.binConfl[1] = imp, p.Not()
				s.qhead = len(s.trail)
				return conflBin
			default:
				s.enqueueBin(imp, p.Not())
				s.Stats.Propagated++
			}
		}
		falsified := p.Not()
		ws := s.watches.at(falsified)
		if ws == nil {
			continue
		}
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			// Blocker satisfied: the clause is true, skip the deref.
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := s.clauses[w.cref].lits
			// Ensure the falsified literal is at position 1.
			if c[0] == falsified {
				c[0], c[1] = c[1], c[0]
			}
			first := c[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches.add(c[1], watcher{w.cref, first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict.
			kept = append(kept, w)
			if !s.enqueue(first, w.cref) {
				// Conflict: keep remaining watches and bail out.
				kept = append(kept, ws[wi+1:]...)
				s.watches.set(falsified, kept)
				s.qhead = len(s.trail)
				return w.cref
			}
			s.Stats.Propagated++
		}
		s.watches.set(falsified, kept)
	}
	return conflNone
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first, minimized by self-subsumption over
// reason clauses) and the backjump level. The clause lives in a buffer
// the next analyze call reuses.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit = -1
	index := len(s.trail) - 1
	curLevel := int32(len(s.lim))

	for {
		var cl []Lit
		if confl == conflBin {
			if p == -1 {
				cl = s.binConfl[:]
			} else {
				s.tmpReason[0] = s.reasonLit[p.Var()]
				cl = s.tmpReason[:]
			}
		} else {
			c := &s.clauses[confl]
			if c.learnt {
				s.bumpClause(confl)
			}
			cl = c.lits
			if p != -1 {
				cl = cl[1:] // lits[0] is the propagated literal p
			}
		}
		for _, q := range cl {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select the next literal on the trail to resolve on.
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// seen is still set exactly for learnt[1:]; minimization relies on it
	// ("already in the clause" antecedents are free), so record the list
	// and clear the flags only after minimizing.
	s.minClear = append(s.minClear[:0], learnt[1:]...)
	var abstract uint32
	for _, l := range learnt[1:] {
		abstract |= 1 << (uint32(s.level[l.Var()]) & 31)
	}
	s.minBudget = 1000
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.litRedundant(learnt[i], abstract) {
			s.Stats.Minimized++
		} else {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	backLevel := int32(0)
	for i := 1; i < len(learnt); i++ {
		if l := s.level[learnt[i].Var()]; l > backLevel {
			backLevel = l
		}
	}
	// Put a literal of the backjump level at position 1 so the watches are
	// correct after backjumping.
	for i := 1; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] == backLevel {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	for _, l := range s.minClear {
		s.seen[l.Var()] = false
	}
	s.learnt = learnt
	return learnt, int(backLevel)
}

// litRedundant reports whether learnt literal l is implied by the rest
// of the learnt clause through the implication graph, in which case
// resolving it away is self-subsumption and it can be dropped. The walk
// is budgeted; running out of budget conservatively keeps the literal.
func (s *Solver) litRedundant(l Lit, abstract uint32) bool {
	v := l.Var()
	r := s.reason[v]
	if r == reasonNone {
		return false
	}
	if s.minBudget <= 0 {
		return false
	}
	s.minBudget--
	if r == reasonBin {
		return s.redundantAntecedent(s.reasonLit[v], abstract)
	}
	for _, q := range s.clauses[r].lits[1:] { // lits[0] is ¬l on the trail
		if !s.redundantAntecedent(q, abstract) {
			return false
		}
	}
	return true
}

func (s *Solver) redundantAntecedent(q Lit, abstract uint32) bool {
	w := q.Var()
	if s.level[w] == 0 || s.seen[w] {
		return true // level-0 fact, or already in the learnt clause
	}
	if 1<<(uint32(s.level[w])&31)&abstract == 0 {
		return false // a level no clause literal shares: cannot be absorbed
	}
	return s.litRedundant(q, abstract)
}

// backtrack undoes assignments above the given decision level.
func (s *Solver) backtrack(level int) {
	if len(s.lim) <= level {
		return
	}
	bound := s.lim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = reasonNone
		s.heap.push(v)
	}
	s.trail = s.trail[:bound]
	s.lim = s.lim[:level]
	s.qhead = bound
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *Solver) bumpClause(ci int32) {
	c := &s.clauses[ci]
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learnt && s.clauses[i].lits != nil {
				s.clauses[i].act *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

// computeLBD returns the number of distinct non-zero decision levels
// among the clause's literals (its "glue").
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdStamp++
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv == 0 {
			continue
		}
		if s.lbdSeen[lv] != s.lbdStamp {
			s.lbdSeen[lv] = s.lbdStamp
			n++
		}
	}
	return n
}

// locked reports whether the clause is the reason of its first literal's
// assignment and therefore must not be deleted.
func (s *Solver) locked(ci int32) bool {
	c := s.clauses[ci].lits
	if len(c) == 0 {
		return false
	}
	v := c[0].Var()
	return s.assign[v] != lUndef && s.reason[v] == ci
}

// reduceDB deletes roughly half of the stored learnt clauses, preferring
// high LBD and low activity. Glue clauses (LBD <= 2) and clauses that are
// currently the reason for an assignment are always kept.
func (s *Solver) reduceDB() {
	cands := s.reduceBuf[:0]
	for ci := range s.clauses {
		c := &s.clauses[ci]
		if !c.learnt || c.lits == nil || c.lbd <= 2 || s.locked(int32(ci)) {
			continue
		}
		cands = append(cands, int32(ci))
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := &s.clauses[cands[i]], &s.clauses[cands[j]]
		if a.lbd != b.lbd {
			return a.lbd > b.lbd
		}
		return a.act < b.act
	})
	for _, ci := range cands[:len(cands)/2] {
		s.detachClause(ci)
		s.numLearnts--
		s.Stats.Deleted++
	}
	s.reduceBuf = cands[:0]
	s.Stats.Reductions++
	// Let the database grow past the survivors before the next pass.
	next := s.maxLearnts + s.maxLearnts/10
	if m := s.numLearnts + s.numLearnts/10 + 100; m > next {
		next = m
	}
	s.maxLearnts = next
}

// pickBranchVar returns the unassigned variable with the highest activity,
// or -1 if all variables are assigned.
func (s *Solver) pickBranchVar() int {
	for s.heap.size > 0 {
		v := s.heap.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve decides satisfiability. When it returns true, Value reports a
// satisfying assignment. It is SolveContext with a background context
// (never interrupted).
func (s *Solver) Solve() bool {
	ok, _ := s.SolveContext(context.Background())
	return ok
}

// ctxCheckInterval is how many search-loop iterations pass between
// ctx.Err() checkpoints. Each iteration performs at least one unit
// propagation pass, so even on hard instances a cancel or deadline is
// observed within a fraction of a millisecond while the check itself
// stays off the hot path.
const ctxCheckInterval = 1024

// SolveContext decides satisfiability under a context: the CDCL search
// loop checks ctx.Err() every ctxCheckInterval iterations (and at every
// restart), so a cancelled context or an expired deadline aborts an
// in-flight search promptly with the context's error. The solver is left
// in an unspecified (but non-corrupt) search state after an abort; it is
// safe to call SolveContext again with a live context to resume deciding
// the same formula. Every aborted call is tallied in Stats.Aborts.
func (s *Solver) SolveContext(ctx context.Context) (bool, error) {
	if s.unsat {
		return false, nil
	}
	// A previous aborted call may have left decisions on the trail; drop
	// to level 0 so the top-level propagation below only ever proves
	// formula-level unsatisfiability, not refutation of stale decisions.
	s.backtrack(0)
	if s.propagate() != conflNone {
		s.unsat = true
		return false, nil
	}
	if s.maxLearnts <= 0 {
		s.maxLearnts = 4000 + s.numProblem/2
	}
	for restart := 1; ; restart++ {
		res, err := statusUndef, ctx.Err()
		if err == nil {
			res, err = s.search(ctx, 256*luby(restart))
		}
		switch {
		case err != nil:
			s.Stats.Aborts++
			return false, err
		case res == statusSAT:
			return true, nil
		case res == statusUNSAT:
			s.unsat = true
			return false, nil
		}
		s.backtrack(0)
		s.Stats.Restarts++
	}
}

type searchStatus int8

const (
	statusUndef searchStatus = iota
	statusSAT
	statusUNSAT
)

// search runs CDCL until a model is found, unsatisfiability is proven,
// the conflict budget is exhausted (statusUndef), or the context is
// cancelled (non-nil error).
func (s *Solver) search(ctx context.Context, budget int) (searchStatus, error) {
	conflicts := 0
	steps := 0
	for {
		steps++
		if steps%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return statusUndef, err
			}
		}
		confl := s.propagate()
		if confl != conflNone {
			conflicts++
			s.Stats.Conflicts++
			if len(s.lim) == 0 {
				return statusUNSAT, nil
			}
			learnt, backLevel := s.analyze(confl)
			s.backtrack(backLevel)
			switch len(learnt) {
			case 1:
				if !s.enqueue(learnt[0], reasonNone) {
					return statusUNSAT, nil
				}
			case 2:
				s.addBinary(learnt[0], learnt[1])
				s.Stats.Learned++
				if !s.enqueueBin(learnt[0], learnt[1]) {
					return statusUNSAT, nil
				}
			default:
				cl := make([]Lit, len(learnt))
				copy(cl, learnt)
				ci := s.attachClause(cl, true)
				s.clauses[ci].lbd = s.computeLBD(cl)
				s.numLearnts++
				s.Stats.Learned++
				s.bumpClause(ci)
				if !s.enqueue(learnt[0], ci) {
					return statusUNSAT, nil
				}
			}
			s.decayActivities()
			if conflicts >= budget {
				return statusUndef, nil
			}
			continue
		}
		if s.numLearnts >= s.maxLearnts {
			s.reduceDB()
		}
		v := s.pickBranchVar()
		if v < 0 {
			return statusSAT, nil // all variables assigned, no conflict
		}
		s.Stats.Decisions++
		s.lim = append(s.lim, len(s.trail))
		l := Pos(v)
		if !s.phase[v] {
			l = Neg(v)
		}
		if !s.enqueue(l, reasonNone) {
			panic("sat: decision on assigned variable")
		}
	}
}

// Value returns the value of variable v in the model found by the last
// successful Solve. Unconstrained variables report false.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// --- activity-ordered variable heap --------------------------------------

type varHeap struct {
	s    *Solver
	heap []int // variable indices
	pos  []int // position in heap, or -1
	size int
}

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[h.heap[a]] > h.s.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < h.size && h.less(l, smallest) {
			smallest = l
		}
		if r < h.size && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	h.swap(0, h.size-1)
	h.size--
	h.pos[v] = -1
	h.down(0)
	return v
}

func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 && h.pos[v] < h.size {
		return
	}
	if h.size < len(h.heap) {
		h.heap[h.size] = v
		h.pos[v] = h.size
	} else {
		h.heap = append(h.heap, v)
		h.pos[v] = len(h.heap) - 1
	}
	h.size++
	h.up(h.size - 1)
}

func (h *varHeap) update(v int) {
	if p := h.pos[v]; p >= 0 && p < h.size {
		h.up(p)
	}
}
