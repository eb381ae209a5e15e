package lclgrid

import (
	"encoding/json"
	"fmt"
	"sort"

	"lclgrid/internal/core"
	"lclgrid/internal/lcl"
)

// ProblemDef is the wire-level table form of an LCL problem: a label
// alphabet, one allowed-pair table per grid dimension, and an optional
// per-vertex allowed set. It is the JSON-definable twin of the
// programmatic lcl.NewProblem constructor — tables replace the
// function-valued relations — and the unit of the problem-definition
// API: POST /v1/problems registers one, SolveRequest and LabelRequest
// accept one inline in "problem_def", and `lclgrid define` ships one to
// a running server. Example (a 3-colouring of the 2-dimensional grid):
//
//	{
//	  "name": "my 3-colouring",
//	  "dims": 2,
//	  "labels": ["1", "2", "3"],
//	  "allow": [
//	    [["1","2"],["1","3"],["2","1"],["2","3"],["3","1"],["3","2"]],
//	    [["1","2"],["1","3"],["2","1"],["2","3"],["3","1"],["3","2"]]
//	  ]
//	}
//
// allow[i] lists the (node label, positive-direction neighbour label)
// pairs permitted across dimension i; node_ok, when present, lists the
// labels valid on a node in isolation (absent means all labels are).
//
// Compile turns a ProblemDef into the engine's *Problem; the problem's
// Fingerprint() hashes the label names (in order), the relation tables
// and the node predicate — not the display name — so a DSL re-statement
// of a catalogue problem that uses the same label names in the same
// order hashes to the same fingerprint and serves from the same warm
// cache as the builtin. NewProblemDef is the inverse: it extracts the
// canonical table form of any table-backed *Problem.
type ProblemDef struct {
	// Name is the display name (optional; fingerprints ignore it).
	Name string `json:"name,omitempty"`
	// Dims is the number of grid dimensions (1..8).
	Dims int `json:"dims"`
	// Labels is the alphabet, in fingerprint order: reordering or
	// renaming labels changes the fingerprint even when the constraint
	// system is isomorphic.
	Labels []string `json:"labels"`
	// Allow is the per-dimension allowed-pair table; Allow[i] lists the
	// label pairs permitted across dimension i. Pairs may arrive in any
	// order and duplicated; Canonical sorts and dedupes them.
	Allow [][]LabelPair `json:"allow"`
	// NodeOK lists the labels valid on a node in isolation; nil (the
	// field absent) means every label is. An explicit empty list means
	// no label is valid on its own — a legal, if unsolvable, problem.
	NodeOK []string `json:"node_ok,omitempty"`
}

// LabelPair is one allowed (node, positive-direction neighbour) label
// pair. Its wire form is the two-element array ["a","b"].
type LabelPair struct {
	A string
	B string
}

// MarshalJSON encodes the pair as ["a","b"].
func (p LabelPair) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]string{p.A, p.B})
}

// UnmarshalJSON decodes ["a","b"], rejecting any other arity — a
// silent drop of a third element would make a typo'd table look valid.
func (p *LabelPair) UnmarshalJSON(data []byte) error {
	var arr []string
	if err := json.Unmarshal(data, &arr); err != nil {
		return fmt.Errorf("lclgrid: allowed pair must be a [\"a\",\"b\"] array: %w", err)
	}
	if len(arr) != 2 {
		return fmt.Errorf("lclgrid: allowed pair must have exactly 2 labels, got %d", len(arr))
	}
	p.A, p.B = arr[0], arr[1]
	return nil
}

// Problem-definition wire guards. Definitions arrive straight off the
// network (POST /v1/problems, inline "problem_def" fields), so the
// alphabet and table sizes must be bounded before anything quadratic is
// allocated: Compile materialises dims·K² relation bits, and the
// synthesis oracle's SAT encoding grows from there. The label cap
// clears the biggest catalogue alphabet (5-edge-colouring's 120 labels)
// with room to spare while keeping the relation tables small.
const (
	// maxDefLabels bounds the alphabet size.
	maxDefLabels = 512
	// maxDefLabelLen bounds each label name's byte length.
	maxDefLabelLen = 128
	// maxDefNameLen bounds the display name's byte length.
	maxDefNameLen = 256
)

// Validate checks the definition's structure against the wire bounds:
// bounded dimensions and alphabet, unique non-empty label names, one
// pair table per dimension, and every pair (and node_ok entry) naming a
// declared label. It allocates nothing quadratic, so front ends can run
// it on untrusted documents before Compile builds the tables.
func (d *ProblemDef) Validate() error {
	if d.Dims < 1 || d.Dims > maxRequestDims {
		return fmt.Errorf("lclgrid: problem definition needs 1..%d dims, got %d", maxRequestDims, d.Dims)
	}
	if len(d.Name) > maxDefNameLen {
		return fmt.Errorf("lclgrid: problem name is %d bytes, the bound is %d", len(d.Name), maxDefNameLen)
	}
	if len(d.Labels) == 0 {
		return fmt.Errorf("lclgrid: problem definition needs at least one label")
	}
	if len(d.Labels) > maxDefLabels {
		return fmt.Errorf("lclgrid: problem definition has %d labels, the bound is %d", len(d.Labels), maxDefLabels)
	}
	seen := make(map[string]bool, len(d.Labels))
	for i, l := range d.Labels {
		if l == "" {
			return fmt.Errorf("lclgrid: label %d is empty", i)
		}
		if len(l) > maxDefLabelLen {
			return fmt.Errorf("lclgrid: label %d is %d bytes, the bound is %d", i, len(l), maxDefLabelLen)
		}
		if seen[l] {
			return fmt.Errorf("lclgrid: label %q appears twice in the alphabet", l)
		}
		seen[l] = true
	}
	if len(d.Allow) != d.Dims {
		return fmt.Errorf("lclgrid: problem definition is %d-dimensional but has %d allowed-pair tables (one per dimension)", d.Dims, len(d.Allow))
	}
	k := len(d.Labels)
	maxPairs := 4 * k * k
	for dim, pairs := range d.Allow {
		if len(pairs) > maxPairs {
			return fmt.Errorf("lclgrid: dimension %d lists %d allowed pairs; a %d-label alphabet admits at most %d distinct pairs", dim, len(pairs), k, k*k)
		}
		for _, pr := range pairs {
			if !seen[pr.A] {
				return fmt.Errorf("lclgrid: dimension %d allows pair [%q, %q] but %q is not in the alphabet", dim, pr.A, pr.B, pr.A)
			}
			if !seen[pr.B] {
				return fmt.Errorf("lclgrid: dimension %d allows pair [%q, %q] but %q is not in the alphabet", dim, pr.A, pr.B, pr.B)
			}
		}
	}
	if len(d.NodeOK) > maxPairs {
		return fmt.Errorf("lclgrid: node_ok has %d entries for a %d-label alphabet", len(d.NodeOK), k)
	}
	for _, l := range d.NodeOK {
		if !seen[l] {
			return fmt.Errorf("lclgrid: node_ok names %q, which is not in the alphabet", l)
		}
	}
	return nil
}

// labelIndex builds the name→index map of the alphabet. Call after
// Validate (which guarantees uniqueness).
func (d *ProblemDef) labelIndex() map[string]int {
	idx := make(map[string]int, len(d.Labels))
	for i, l := range d.Labels {
		idx[l] = i
	}
	return idx
}

// Canonical validates the definition and returns its canonical form: a
// deep copy with each dimension's pairs sorted by label index and
// deduplicated, node_ok sorted, deduplicated and elided when it covers
// the whole alphabet. The alphabet itself is never reordered or renamed
// — label names and order are part of the fingerprint, so normalisation
// must not touch them. Two definitions with equal canonical forms
// compile to problems with equal fingerprints; the problem store and
// GET /v1/problems/{key} serve this form.
func (d *ProblemDef) Canonical() (*ProblemDef, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	idx := d.labelIndex()
	k := len(d.Labels)
	out := &ProblemDef{
		Name:   d.Name,
		Dims:   d.Dims,
		Labels: append([]string(nil), d.Labels...),
		Allow:  make([][]LabelPair, d.Dims),
	}
	for dim, pairs := range d.Allow {
		set := make(map[int]bool, len(pairs))
		for _, pr := range pairs {
			set[idx[pr.A]*k+idx[pr.B]] = true
		}
		codes := make([]int, 0, len(set))
		for c := range set {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		canon := make([]LabelPair, len(codes))
		for i, c := range codes {
			canon[i] = LabelPair{A: d.Labels[c/k], B: d.Labels[c%k]}
		}
		out.Allow[dim] = canon
	}
	if d.NodeOK != nil {
		set := make(map[int]bool, len(d.NodeOK))
		for _, l := range d.NodeOK {
			set[idx[l]] = true
		}
		if len(set) < k {
			codes := make([]int, 0, len(set))
			for c := range set {
				codes = append(codes, c)
			}
			sort.Ints(codes)
			canon := make([]string, len(codes))
			for i, c := range codes {
				canon[i] = d.Labels[c]
			}
			out.NodeOK = canon
		}
		// A node_ok covering every label is the same constraint system as
		// no node_ok at all (and fingerprints identically): elide it.
	}
	return out, nil
}

// Compile validates the definition and materialises it as the engine's
// *Problem. The compiled problem's Fingerprint() is a pure function of
// the canonical form — pair order, duplicate pairs and an all-label
// node_ok do not affect it — so a DSL re-statement of a catalogue
// problem fingerprint-matches the builtin and shares its synthesis
// cache entries.
func (d *ProblemDef) Compile() (*Problem, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	idx := d.labelIndex()
	k := len(d.Labels)
	allowed := make([][]bool, d.Dims)
	for dim := range allowed {
		tbl := make([]bool, k*k)
		for _, pr := range d.Allow[dim] {
			tbl[idx[pr.A]*k+idx[pr.B]] = true
		}
		allowed[dim] = tbl
	}
	var nodeOK func(a int) bool
	if d.NodeOK != nil {
		ok := make([]bool, k)
		for _, l := range d.NodeOK {
			ok[idx[l]] = true
		}
		nodeOK = func(a int) bool { return ok[a] }
	}
	name := d.Name
	if name == "" {
		name = fmt.Sprintf("user-defined LCL (%d labels, %d-dimensional)", k, d.Dims)
	}
	return lcl.NewProblem(name, d.Labels, d.Dims,
		func(dim, a, b int) bool { return allowed[dim][a*k+b] },
		nodeOK), nil
}

// Fingerprint compiles the definition and returns its canonical
// problem fingerprint — the value synthesis caches, the fleet store and
// the gateway's ring placement all key on.
func (d *ProblemDef) Fingerprint() (string, error) {
	p, err := d.Compile()
	if err != nil {
		return "", err
	}
	return p.Fingerprint(), nil
}

// NewProblemDef extracts the canonical table form of a problem — the
// inverse of Compile. Every *Problem materialises its relations as
// tables at construction, so the extraction is total: round-tripping a
// table-representable catalogue problem through NewProblemDef, JSON and
// Compile yields a problem with the identical fingerprint.
func NewProblemDef(p *Problem) *ProblemDef {
	k := p.K()
	d := &ProblemDef{
		Name:   p.Name(),
		Dims:   p.Dims(),
		Labels: make([]string, k),
		Allow:  make([][]LabelPair, p.Dims()),
	}
	for a := 0; a < k; a++ {
		d.Labels[a] = p.Label(a)
	}
	for dim := 0; dim < p.Dims(); dim++ {
		var pairs []LabelPair
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if p.Allowed(dim, a, b) {
					pairs = append(pairs, LabelPair{A: d.Labels[a], B: d.Labels[b]})
				}
			}
		}
		d.Allow[dim] = pairs
	}
	allOK := true
	for a := 0; a < k; a++ {
		if !p.NodeOK(a) {
			allOK = false
			break
		}
	}
	if !allOK {
		for a := 0; a < k; a++ {
			if p.NodeOK(a) {
				d.NodeOK = append(d.NodeOK, d.Labels[a])
			}
		}
		if d.NodeOK == nil {
			d.NodeOK = []string{} // explicit: no label is valid alone
		}
	}
	return d
}

// UserKeyPrefix prefixes the registry keys of user-defined problems.
// The key is derived from the fingerprint, so registration is
// idempotent: re-defining the same constraint system yields the same
// key on every replica.
const UserKeyPrefix = "user:"

// userKey derives the registry key of a user-defined problem from its
// fingerprint.
func userKey(fingerprint string) string {
	fp := fingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	return UserKeyPrefix + fp
}

// oracleAttempts returns the one-sided oracle's (k, h, w) schedule for
// powers 1..maxK, smallest first: the shapes an inline problem is
// classified through, and an oracle-classified spec warms and labels
// through at the default power budget of 3.
func oracleAttempts(maxK int) []SynthAttempt {
	shapes := core.OracleSchedule(maxK)
	attempts := make([]SynthAttempt, len(shapes))
	for i, s := range shapes {
		attempts[i] = SynthAttempt{K: s[0], H: s[1], W: s[2]}
	}
	return attempts
}

// DefineProblem compiles and registers a user problem definition in the
// engine's registry under its fingerprint-derived key ("user:<fp12>").
// Registration is idempotent on the fingerprint: re-defining the same
// constraint system (under any name, any pair order) returns the
// existing key with created == false. The returned record carries the
// canonical definition form — the one the problem store persists and
// GET /v1/problems/{key} serves. All errors are *RequestError: a
// definition arrives off the wire and its defects are the client's.
//
// The registered spec carries the Oracle plan hint: solves flow through
// the same Planner → synthesis-oracle → SynthCache pipeline as inline
// problems, so classification results are cached under the fingerprint
// and shared with every other route to the same constraint system.
func (e *Engine) DefineProblem(def *ProblemDef) (StoredProblem, bool, error) {
	canon, err := def.Canonical()
	if err != nil {
		return StoredProblem{}, false, &RequestError{Err: err}
	}
	p, err := canon.Compile()
	if err != nil {
		return StoredProblem{}, false, &RequestError{Err: err}
	}
	fp := p.Fingerprint()
	key := userKey(fp)
	rec := StoredProblem{Key: key, Fingerprint: fp, Def: canon}
	if existing, lerr := e.reg.Lookup(key); lerr == nil {
		if existing.Problem != nil && existing.Problem().Fingerprint() != fp {
			// A truncated-fingerprint collision — astronomically unlikely,
			// but refusing beats silently serving someone else's tables.
			return StoredProblem{}, false, &RequestError{Err: fmt.Errorf("lclgrid: key %s already names a different problem", key)}
		}
		return rec, false, nil
	}
	minSide := 4
	if p.Dims() == 2 {
		minSide = 12 // MinTorusSide for the oracle's smallest k=1 shape
	}
	spec := &ProblemSpec{
		Key:       key,
		Name:      p.Name(),
		Dims:      p.Dims(),
		NumLabels: p.K(),
		Class:     ClassUnknown,
		MinSide:   minSide,
		Problem:   func() *Problem { return p },
		Oracle:    true,
		Source:    SourceUser,
	}
	if err := e.reg.Register(spec); err != nil {
		return StoredProblem{}, false, &RequestError{Err: err}
	}
	return rec, true, nil
}
