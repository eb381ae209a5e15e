package lclgrid

import (
	"fmt"
	"strings"
	"sync"

	"lclgrid/internal/core"
	"lclgrid/internal/lm"
	"lclgrid/internal/orient"
)

// ProblemSpec is one registry entry: a problem constructor, the paper's
// classification of it, and a declarative plan hint telling the Planner
// how the problem is served. Specs are what SolveRequest keys — from the
// CLI, the `lclgrid batch` JSONL front end, the experiments and
// downstream services — resolve against.
//
// Exactly one of the five plan hints must be set:
//
//   - Constant: the problem is O(1); a constant label fills the grid.
//   - Attempts: normal-form synthesis; the listed (k, h, w) shapes are
//     tried in order until one admits a lookup table, with the Θ(n)
//     baseline as the automatic fallback when the torus is below the
//     normal form's minimum side.
//   - Direct: a hand-written algorithm adapter (§8, §10, the §6 L_M
//     construction, or a caller-supplied Solver). Direct specs get no
//     automatic baseline fallback — their failure modes are their own.
//   - Baseline: the Θ(n) gather-and-solve brute force is the primary
//     (and only) strategy.
//   - Oracle: the class is unknown up front (user-defined problems);
//     the cached one-sided oracle classifies at plan time, synthesis
//     serves when a normal form exists and the Θ(n) baseline otherwise.
//
// Declarative hints are what make `lclgrid explain` possible: the
// Planner can rank and print the strategies for a request without
// constructing (or running) any solver.
type ProblemSpec struct {
	// Key is the registry lookup key ("4col", "mis", "lm:halt", ...).
	Key string
	// Name is the display name of the problem.
	Name string
	// Dims is the grid dimension the spec is registered for.
	Dims int
	// NumLabels is the SFT alphabet size (0 for non-SFT problems).
	NumLabels int
	// Class is the complexity class established by the paper
	// (ClassUnknown when the one-sided oracle has not resolved it).
	Class Class
	// MinSide is the smallest torus side the default solver supports;
	// SideModulus, when non-zero, additionally requires sides to be
	// multiples of it.
	MinSide     int
	SideModulus int
	// Problem constructs the SFT form; nil for problems without an int
	// SFT encoding here (the L_M gadget). Required by the Constant,
	// Attempts and Baseline hints.
	Problem func() *Problem

	// Constant marks an O(1) problem served by constant fill.
	Constant bool
	// Attempts are the normal-form shapes synthesis tries, in order; the
	// first shape that admits a lookup table wins.
	Attempts []SynthAttempt
	// Direct constructs a direct-algorithm solver (context-aware; see
	// the Solver interface); the engine is passed so adapters that want
	// cached synthesis can use it.
	Direct func(e *Engine) Solver
	// Baseline marks a problem served by the Θ(n) brute force.
	Baseline bool
	// Oracle marks a problem classified at plan time by the cached
	// one-sided oracle — the hint user-defined problems register with.
	Oracle bool

	// Source names where the spec came from: "" or SourceBuiltin for the
	// catalogue, SourceFamily for parameterised-family resolutions,
	// SourceUser for DSL-registered problems.
	Source string

	// Verify checks a Result against the problem definition (used when
	// Labels is nil and the SFT Verify does not apply).
	Verify func(t *Torus, res *Result) error
}

// Spec sources, rendered by `lclgrid list -v` and GET /v1/problems.
const (
	SourceBuiltin = "builtin"
	SourceFamily  = "family"
	SourceUser    = "user"
)

// SourceLabel returns the spec's source, defaulting to SourceBuiltin —
// the catalogue specs predate the field and leave it empty.
func (s *ProblemSpec) SourceLabel() string {
	if s.Source == "" {
		return SourceBuiltin
	}
	return s.Source
}

// HintSummary returns a one-line human description of the spec's plan
// hint ("synthesis k=1 3×3 (side ≥ 12) | k=2 5×5 (side ≥ 20)", "constant
// fill", ...); empty when the spec carries no hint. `lclgrid list -v`
// prints it so plans from `lclgrid explain` are cross-checkable against
// the registry.
func (s *ProblemSpec) HintSummary() string {
	switch {
	case s.Constant:
		return "constant fill"
	case len(s.Attempts) > 0:
		parts := make([]string, len(s.Attempts))
		for i, a := range s.Attempts {
			parts[i] = fmt.Sprintf("k=%d %d×%d (side ≥ %d)", a.K, a.H, a.W, core.MinTorusSideFor(a.K, a.H, a.W))
		}
		return "synthesis " + strings.Join(parts, " | ") + ", Θ(n) fallback"
	case s.Direct != nil:
		return "direct algorithm"
	case s.Baseline:
		return "Θ(n) brute force"
	case s.Oracle:
		return "oracle-classified: synthesis when a normal form exists, Θ(n) fallback"
	}
	return ""
}

// StrategySummary is HintSummary with direct specs named through their
// constructed solver ("direct: §10 direct edge colouring") — the form
// `lclgrid list -v` and the GET /v1/problems catalogue both render, so
// the two surfaces cannot drift.
func (s *ProblemSpec) StrategySummary(e *Engine) string {
	if s.Direct != nil {
		return "direct: " + s.Direct(e).Name()
	}
	return s.HintSummary()
}

// SmallestSide returns the smallest torus side the spec's default
// solver supports: at least MinSide (floored at 4, the smallest torus
// every solver handles), rounded up to the side modulus.
func (s *ProblemSpec) SmallestSide() int {
	side := s.MinSide
	if side < 4 {
		side = 4
	}
	if s.SideModulus > 1 && side%s.SideModulus != 0 {
		side += s.SideModulus - side%s.SideModulus
	}
	return side
}

// CheckResult verifies a Result against the spec's problem definition.
func (s *ProblemSpec) CheckResult(t *Torus, res *Result) error {
	if s.Verify != nil {
		return s.Verify(t, res)
	}
	if s.Problem == nil {
		return fmt.Errorf("lclgrid: spec %q has no verifier", s.Key)
	}
	return s.Problem().Verify(t, res.Labels)
}

// Registry maps problem keys to specs. Beyond the registered keys it
// resolves three parameterised families — "<k>col", "<k>edgecol" and
// "orient<digits>" — so every problem the old CLI name switch accepted
// remains addressable. Registries are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]*ProblemSpec
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]*ProblemSpec)}
}

// Register adds a spec; re-registering a key replaces the entry. The
// spec must carry a key and exactly one plan hint (Constant, Attempts,
// Direct, Baseline or Oracle); every hint but Direct needs a Problem
// constructor for the planner to build its solvers from.
func (r *Registry) Register(spec *ProblemSpec) error {
	if spec.Key == "" {
		return fmt.Errorf("lclgrid: spec needs a key")
	}
	hints := 0
	for _, set := range []bool{spec.Constant, len(spec.Attempts) > 0, spec.Direct != nil, spec.Baseline, spec.Oracle} {
		if set {
			hints++
		}
	}
	if hints != 1 {
		return fmt.Errorf("lclgrid: spec %q needs exactly one plan hint (Constant, Attempts, Direct, Baseline or Oracle), has %d", spec.Key, hints)
	}
	if spec.Direct == nil && spec.Problem == nil {
		return fmt.Errorf("lclgrid: spec %q hint needs a Problem constructor", spec.Key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.specs[spec.Key]; !ok {
		r.order = append(r.order, spec.Key)
	}
	r.specs[spec.Key] = spec
	return nil
}

// Keys returns the registered keys in registration order.
func (r *Registry) Keys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Specs returns the registered specs in registration order.
func (r *Registry) Specs() []*ProblemSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ProblemSpec, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.specs[k])
	}
	return out
}

// Lookup resolves a key to a spec: registered keys first, then the
// parameterised families. Unknown keys fail with an error enumerating
// every valid key and family.
func (r *Registry) Lookup(key string) (*ProblemSpec, error) {
	r.mu.RLock()
	spec, ok := r.specs[key]
	r.mu.RUnlock()
	if ok {
		return spec, nil
	}
	if spec := familySpec(key); spec != nil {
		return spec, nil
	}
	return nil, fmt.Errorf("lclgrid: unknown problem %q; registered keys: %s; families: <k>col, <k>edgecol, orient<digits 0-4>",
		key, strings.Join(r.Keys(), ", "))
}

// Family parameter bounds. Keys reach this parser straight off the wire
// (the `lclgrid batch` JSONL front end), so the alphabets they imply
// must be bounded: an unchecked "<k>col" would allocate O(k²)-bit
// relation bitmaps, and the edge-colouring alphabet grows like k⁴.
// The caps are far above anything the paper (or a tractable SAT call)
// uses.
const (
	maxFamilyVertexColors = 1024
	maxFamilyEdgeColors   = 8
)

// familySpec constructs a spec for the parameterised families. Keys are
// validated strictly — exact round-trip formatting, bounded parameters,
// and (for orientations) X a non-empty set of out-degrees from
// {0,...,4} with no repeated digits — so a malformed or adversarial key
// yields the unknown-key error instead of a huge allocation (see
// FuzzRegistryLookup).
func familySpec(key string) *ProblemSpec {
	switch {
	case strings.HasSuffix(key, "edgecol"):
		var k int
		if _, err := fmt.Sscanf(key, "%dedgecol", &k); err != nil || k < 4 || k > maxFamilyEdgeColors || fmt.Sprintf("%dedgecol", k) != key {
			return nil
		}
		return asFamily(edgeColoringSpec(key, k))
	case strings.HasSuffix(key, "col"):
		var k int
		if _, err := fmt.Sscanf(key, "%dcol", &k); err != nil || k < 2 || k > maxFamilyVertexColors || fmt.Sprintf("%dcol", k) != key {
			return nil
		}
		return asFamily(vertexColoringSpec(key, k))
	case strings.HasPrefix(key, "orient"):
		var x []int
		var seen [5]bool
		for _, ch := range key[len("orient"):] {
			if ch < '0' || ch > '4' {
				return nil
			}
			d := int(ch - '0')
			if seen[d] {
				return nil // X is a set of out-degrees; "orient00" is no key
			}
			seen[d] = true
			x = append(x, d)
		}
		if len(x) == 0 {
			return nil
		}
		return asFamily(orientationSpec(key, x))
	}
	return nil
}

// asFamily marks a spec as a parameterised-family resolution (the
// catalogue registers the same constructors' output directly, keeping
// the builtin source).
func asFamily(spec *ProblemSpec) *ProblemSpec {
	spec.Source = SourceFamily
	return spec
}

// vertexColoringSpec builds the spec for proper k-colouring on
// 2-dimensional grids: global for k <= 3 (Thm 9), Θ(log* n) for k >= 4
// (Thm 4; k = 4 synthesizes the paper's headline k = 3 normal form,
// k >= 5 synthesizes with k = 1 anchors).
func vertexColoringSpec(key string, k int) *ProblemSpec {
	p := func() *Problem { return VertexColoring(k, 2) }
	spec := &ProblemSpec{
		Key: key, Name: p().Name(), Dims: 2, NumLabels: k, Problem: p,
	}
	switch {
	case k <= 3:
		spec.Class = ClassGlobal
		spec.MinSide = 4
		if k == 2 {
			spec.SideModulus = 2 // 2-colourings need even sides
		}
		spec.Baseline = true
	case k == 4:
		// The paper's headline synthesis (k = 3 over 2079 tiles); the §8
		// direct algorithm (FourColorSolver) needs much larger tori in
		// this implementation and stays available as an explicit adapter.
		spec.Class = ClassLogStar
		spec.MinSide = 28 // MinTorusSide for k=3, 7×5 windows
		spec.Attempts = []SynthAttempt{{K: 3, H: 7, W: 5}}
	default:
		spec.Class = ClassLogStar
		spec.MinSide = 12 // MinTorusSide for k=1, 3×2 windows
		spec.Attempts = []SynthAttempt{{K: 1, H: 3, W: 2}}
	}
	return spec
}

// edgeColoringSpec builds the spec for proper edge k-colouring on
// 2-dimensional grids: global for k = 2d (Thm 21 parity), Θ(log* n) for
// k >= 2d+1 (Thm 15 via the §10 direct algorithm).
func edgeColoringSpec(key string, k int) *ProblemSpec {
	p := func() *Problem { return EdgeColoring(k, 2).Problem }
	spec := &ProblemSpec{
		Key: key, Name: p().Name(), Dims: 2, NumLabels: p().K(), Problem: p,
	}
	if k == 4 {
		spec.Class = ClassGlobal
		spec.MinSide = 4
		spec.SideModulus = 2 // no 2d-edge-colouring when n is odd
		spec.Baseline = true
	} else {
		spec.Class = ClassLogStar
		spec.MinSide = 680 // §10 paper constants need sides > 2·338+2
		// Direct specs get no Θ(n) fallback on purpose: the edge
		// alphabet makes the SAT baseline intractable, so an honest
		// error beats an open-ended solve.
		spec.Direct = func(e *Engine) Solver { return &EdgeColorSolver{KColors: k} }
	}
	return spec
}

// orientationSpec builds the spec for an X-orientation problem using the
// Theorem 22 classification: O(1) when 2 ∈ X, Θ(log* n) for the Lemma 23
// sets (synthesized), global otherwise (brute force / certificates).
func orientationSpec(key string, x []int) *ProblemSpec {
	p := func() *Problem { return XOrientation(x, 2).Problem }
	spec := &ProblemSpec{
		Key: key, Name: p().Name(), Dims: 2, NumLabels: p().K(), Problem: p,
		Class: orient.Classify(x),
	}
	switch spec.Class {
	case ClassO1:
		spec.MinSide = 1
		spec.Constant = true
	case ClassLogStar:
		spec.MinSide = 12 // MinTorusSide for k=1, 3×3 windows
		// Lemma 23: k=1 suffices; the k=2 square window is the staged
		// backup, tried only if the k=1 shape admits no table (it always
		// does, so the expensive 5×5 search never runs).
		spec.Attempts = []SynthAttempt{{K: 1, H: 3, W: 3}, {K: 2, H: 5, W: 5}}
	default:
		spec.Class = ClassGlobal
		spec.MinSide = 4
		spec.SideModulus = 2 // several global X are unsolvable on odd tori (Lemma 24)
		spec.Baseline = true
	}
	return spec
}

// lmSpec builds a spec for the §6 undecidability gadget L_M.
func lmSpec(key string, m *TuringMachine, halts bool, minSide, modulus int) *ProblemSpec {
	return &ProblemSpec{
		Key:  key,
		Name: fmt.Sprintf("L_M for %s", m.Name),
		Dims: 2,
		Class: func() Class {
			if halts {
				return ClassLogStar
			}
			return ClassGlobal
		}(),
		MinSide:     minSide,
		SideModulus: modulus,
		Direct: func(e *Engine) Solver {
			return &LMSolver{LM: LM(m), Halts: halts}
		},
		Verify: func(t *Torus, res *Result) error {
			labels, ok := res.Decoded.([]lm.Label)
			if !ok {
				return fmt.Errorf("lclgrid: L_M result carries no []lm.Label")
			}
			return LM(m).Verify(t, labels)
		},
	}
}

// DefaultRegistry returns a fresh registry populated with the paper's
// problem catalogue: the colouring and orientation thresholds, MIS,
// matchings, and the two L_M reference machines.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	mis := func() *Problem { return MIS(2).Problem }
	matching := func() *Problem { return MaximalMatching(2).Problem }
	is := func() *Problem { return IndependentSet(2) }
	specs := []*ProblemSpec{
		// O(1): trivial problems with constant solutions.
		{
			Key: "is", Name: is().Name(), Dims: 2, NumLabels: is().K(),
			Class: ClassO1, MinSide: 1, Problem: is,
			Constant: true,
		},
		orientationSpec("orient2", []int{2}),
		// Θ(log* n): synthesized normal forms and the direct algorithms.
		vertexColoringSpec("4col", 4),
		vertexColoringSpec("5col", 5),
		{
			Key: "mis", Name: mis().Name(), Dims: 2, NumLabels: mis().K(),
			Class: ClassLogStar, MinSide: 12, Problem: mis,
			Attempts: []SynthAttempt{{K: 1, H: 3, W: 3}},
		},
		edgeColoringSpec("5edgecol", 5),
		orientationSpec("orient134", []int{1, 3, 4}),
		orientationSpec("orient013", []int{0, 1, 3}),
		// Θ(n): global problems below the thresholds.
		vertexColoringSpec("3col", 3),
		vertexColoringSpec("2col", 2),
		edgeColoringSpec("4edgecol", 4),
		orientationSpec("orient034", []int{0, 3, 4}),
		// Conjectured global: bounded synthesis fails through k = 3; the
		// one-sided oracle cannot confirm (§7).
		{
			Key: "matching", Name: matching().Name(), Dims: 2, NumLabels: matching().K(),
			Class: ClassUnknown, MinSide: 4, Problem: matching,
			Baseline: true,
		},
		// The §6 undecidability gadget for the two reference machines.
		lmSpec("lm:halt", HaltingWriter(2), true, lm.TileSize(2), lm.TileSize(2)),
		lmSpec("lm:loop", RightLooper(), false, 9, 3),
	}
	for _, s := range specs {
		if err := r.Register(s); err != nil {
			panic(err)
		}
	}
	return r
}
