package lclgrid

import (
	"fmt"
	"sync"
)

// SolveRequest is the unit of service of the request/response API: "solve
// this LCL problem on this torus with these knobs". A request names a
// problem either by registry key (Key) or inline (Problem, programmatic
// callers only), a torus shape, an identifier assignment and the solver
// options. The zero values of the option fields select the same defaults
// as a bare solver call: verification on, MaxPower 3, MaxSteps 100.
//
// SolveRequest is JSON round-trippable, which is what the `lclgrid batch`
// JSONL front end decodes, e.g.:
//
//	{"key":"4col","n":32,"seed":7}
//	{"key":"orient134","sides":[16,20],"power":1}
//
// Problem and Torus are programmatic-only fields (function-valued and
// graph-valued respectively) and are excluded from the wire form.
type SolveRequest struct {
	// Key selects a registered problem (see Registry.Lookup). Exactly one
	// of Key, Problem and ProblemDef must be set.
	Key string `json:"key,omitempty"`
	// Problem supplies an inline, possibly unregistered SFT problem; the
	// engine classifies it with the cached one-sided oracle and picks the
	// best applicable solver (constant fill / synthesis / global brute
	// force).
	Problem *Problem `json:"-"`
	// ProblemDef supplies an inline problem in the wire-form table DSL
	// (see ProblemDef); it is the JSON-settable counterpart of Problem
	// and follows the same oracle-classified planning path. Exactly one
	// of Key, Problem and ProblemDef may be set.
	ProblemDef *ProblemDef `json:"problem_def,omitempty"`

	// Torus is an explicit torus; when nil the shape is built from Sides
	// (general) or N (the n×n square), in that order. When all three are
	// unset, a Key request defaults to the smallest torus the registered
	// solver supports; an explicit shape is honoured even when it violates
	// the spec's side hints (that is how unsolvability certificates are
	// produced).
	Torus *Torus `json:"-"`
	Sides []int  `json:"sides,omitempty"`
	N     int    `json:"n,omitempty"`

	// IDs is the identifier assignment; nil selects sequential
	// identifiers, unless Seed is non-zero, which selects the
	// deterministic pseudorandom assignment PermutedIDs(n, Seed).
	IDs  []int `json:"ids,omitempty"`
	Seed int64 `json:"seed,omitempty"`

	// NoVerify skips checking the labelling against the problem
	// definition (verification is on by default).
	NoVerify bool `json:"no_verify,omitempty"`
	// Power forces the synthesis path with this anchor power; H and W
	// override the anchor window shape (each 0 selects that side of
	// DefaultWindow(Power)).
	Power int `json:"power,omitempty"`
	H     int `json:"h,omitempty"`
	W     int `json:"w,omitempty"`
	// MaxPower bounds the powers tried when classifying an inline
	// problem (0 selects the default 3, the paper's largest).
	MaxPower int `json:"max_power,omitempty"`
	// Ell fixes the §8 ball parameter (0 retries automatically).
	Ell int `json:"ell,omitempty"`
	// EdgeParams override the §10 constants for edge-colouring solvers
	// (the zero value selects the paper's defaults, which need torus
	// sides above 679 for d = 2).
	EdgeParams EdgeColorParams `json:"edge_params,omitzero"`
	// MaxSteps bounds the Turing-machine simulation of L_M solvers (0
	// selects the default 100).
	MaxSteps int `json:"max_steps,omitempty"`
}

// Wire guards. SolveRequests arrive straight off the network (`lclgrid
// batch` stdin, the /v1/solve and /v1/batch endpoints), so the shapes
// they imply must be bounded before anything is allocated: an unchecked
// {"n": 3100000000} overflows n² on 64-bit ints, and anything close
// allocates identifier and labelling slices of n² machine words. The
// caps are far above every instance the paper (or a tractable solver
// run) uses; programmatic callers that really want a bigger instance
// can construct the Torus themselves and drive a Solver adapter
// directly, bypassing the request layer.
const (
	// maxRequestNodes bounds the torus size reachable through N or Sides
	// (2² ... 1024² squares).
	maxRequestNodes = 1 << 20
	// maxRequestDims bounds the dimension count of Sides.
	maxRequestDims = 8
	// maxRequestPower bounds Power and MaxPower (the paper uses k ≤ 3).
	maxRequestPower = 16
	// maxRequestWindow bounds the H×W anchor window overrides (the paper
	// uses 7×5).
	maxRequestWindow = 64
	// maxRequestSteps bounds MaxSteps (the Turing-machine simulation
	// budget of L_M solvers).
	maxRequestSteps = 1 << 20
	// maxRequestEll bounds the §8 ball parameter (the solver needs
	// 4·ell+2 ≤ side, so anything beyond the side cap is dead weight).
	maxRequestEll = 1 << 10
	// maxRequestEdgeK bounds the §10 ball radius: the construction
	// enumerates (4K+1)^d ball offsets with no cancellation checkpoint,
	// so K must be capped before the solver runs (the paper uses K = 3).
	maxRequestEdgeK = 16
)

// Validate checks the wire-settable fields of the request against the
// request-layer bounds: exactly one problem source, positive and bounded
// torus shape, bounded identifier count, and non-negative, bounded
// option knobs. The Planner validates every request before resolving
// it, so a malformed or adversarial JSON document fails with a clean
// per-request error instead of an overflow or a giant allocation; wire
// front ends (the HTTP server, `lclgrid batch`) call it right after
// decoding to reject bad documents before any engine work.
func (r *SolveRequest) Validate() error {
	sources := 0
	for _, set := range []bool{r.Key != "", r.Problem != nil, r.ProblemDef != nil} {
		if set {
			sources++
		}
	}
	switch {
	case sources > 1:
		return fmt.Errorf("lclgrid: request names %d problem sources; choose one of Key, Problem and ProblemDef", sources)
	case sources == 0:
		return fmt.Errorf("lclgrid: request names no problem (set Key, Problem or ProblemDef)")
	}
	if r.ProblemDef != nil {
		if err := r.ProblemDef.Validate(); err != nil {
			return err
		}
	}
	if r.N < 0 {
		return fmt.Errorf("lclgrid: torus side must be positive, got %d", r.N)
	}
	if r.N > 0 && (r.N > maxRequestNodes || r.N > maxRequestNodes/r.N) {
		return fmt.Errorf("lclgrid: torus side %d exceeds the request bound (%d nodes); construct the Torus directly for bigger instances", r.N, maxRequestNodes)
	}
	if len(r.Sides) > maxRequestDims {
		return fmt.Errorf("lclgrid: request has %d torus dimensions, the bound is %d", len(r.Sides), maxRequestDims)
	}
	nodes := 1
	for i, side := range r.Sides {
		if side < 1 {
			return fmt.Errorf("lclgrid: torus dimension %d has side %d < 1", i, side)
		}
		if side > maxRequestNodes/nodes {
			return fmt.Errorf("lclgrid: torus shape %v exceeds the request bound (%d nodes); construct the Torus directly for bigger instances", r.Sides, maxRequestNodes)
		}
		nodes *= side
	}
	if len(r.IDs) > maxRequestNodes {
		return fmt.Errorf("lclgrid: request has %d ids, the bound is %d", len(r.IDs), maxRequestNodes)
	}
	for name, v := range map[string]int{
		"power": r.Power, "h": r.H, "w": r.W,
		"max_power": r.MaxPower, "ell": r.Ell, "max_steps": r.MaxSteps,
	} {
		if v < 0 {
			// 0 means "unset, use the default" for every one of these
			// knobs, so only a negative value is malformed.
			return fmt.Errorf("lclgrid: request field %q must be positive when set, got %d", name, v)
		}
	}
	if r.Power > maxRequestPower || r.MaxPower > maxRequestPower {
		return fmt.Errorf("lclgrid: anchor power %d exceeds the request bound %d", max(r.Power, r.MaxPower), maxRequestPower)
	}
	if r.H > maxRequestWindow || r.W > maxRequestWindow {
		return fmt.Errorf("lclgrid: anchor window %dx%d exceeds the request bound %d", r.H, r.W, maxRequestWindow)
	}
	if r.MaxSteps > maxRequestSteps {
		return fmt.Errorf("lclgrid: max_steps %d exceeds the request bound %d", r.MaxSteps, maxRequestSteps)
	}
	if r.Ell > maxRequestEll {
		return fmt.Errorf("lclgrid: ell %d exceeds the request bound %d", r.Ell, maxRequestEll)
	}
	// The §10 constants are wire-settable too, and K feeds a ball
	// enumeration that grows like (4K+1)^d with no context checkpoint —
	// an unbounded K would let one request pin a CPU past any deadline.
	ep := r.EdgeParams
	for name, v := range map[string]int{
		"edge_params.K": ep.K, "edge_params.RowSpacing": ep.RowSpacing, "edge_params.MoveCap": ep.MoveCap,
	} {
		if v < 0 {
			return fmt.Errorf("lclgrid: request field %q must be positive when set, got %d", name, v)
		}
	}
	if ep.K > maxRequestEdgeK {
		return fmt.Errorf("lclgrid: edge_params.K %d exceeds the request bound %d", ep.K, maxRequestEdgeK)
	}
	if ep.RowSpacing > maxRequestNodes || ep.MoveCap > maxRequestNodes {
		return fmt.Errorf("lclgrid: edge_params spacing %d/%d exceeds the request bound %d", ep.RowSpacing, ep.MoveCap, maxRequestNodes)
	}
	return nil
}

// options resolves the request's knobs into the Options a solver adapter
// consumes.
func (r *SolveRequest) options() Options {
	o := buildOptions(nil)
	o.Verify = !r.NoVerify
	o.Power, o.H, o.W, o.Ell = r.Power, r.H, r.W, r.Ell
	o.EdgeParams = r.EdgeParams
	if r.MaxPower > 0 {
		o.MaxPower = r.MaxPower
	}
	if r.MaxSteps > 0 {
		o.MaxSteps = r.MaxSteps
	}
	return o
}

// torus resolves the request's torus shape; spec (nil for inline
// problems) supplies the default side when no shape is given.
func (r *SolveRequest) torus(spec *ProblemSpec) (*Torus, error) {
	switch {
	case r.Torus != nil:
		return r.Torus, nil
	case len(r.Sides) > 0:
		return NewTorus(r.Sides...)
	case r.N > 0:
		return Square(r.N), nil
	case r.N < 0:
		return nil, fmt.Errorf("lclgrid: torus side must be positive, got %d", r.N)
	case spec != nil:
		return Square(spec.SmallestSide()), nil
	}
	return nil, fmt.Errorf("lclgrid: request needs a torus shape (set N, Sides or Torus)")
}

// ids resolves the request's identifier assignment for the torus. An
// explicit IDs slice must cover the torus exactly — this is a
// wire-settable field, so a mismatch is a per-request error, never a
// panic deeper in a solver. A seeded permutation is only built when a
// stage first asks for it (see idSource).
func (r *SolveRequest) ids(t *Torus) (*idSource, error) {
	switch {
	case r.IDs != nil && len(r.IDs) != t.N():
		return nil, fmt.Errorf("lclgrid: request has %d ids for a %d-node torus", len(r.IDs), t.N())
	case r.IDs == nil && r.Seed == 0:
		return nil, nil
	}
	return &idSource{ids: r.IDs, n: t.N(), seed: r.Seed}, nil
}

// idSource is a plan's identifier assignment: the request's explicit
// IDs, else PermutedIDs(n, seed) for a non-zero seed; a nil *idSource
// gets nil ("let the solver fill sequential identifiers"). The
// permutation is built on the first get, at most once, so stages that
// never read identifiers (constant fill, the baseline, ID-free direct
// solvers) never pay for it.
type idSource struct {
	once sync.Once
	ids  []int
	n    int
	seed int64
}

func (s *idSource) get() []int {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		if s.ids == nil && s.seed != 0 {
			s.ids = PermutedIDs(s.n, s.seed)
		}
	})
	return s.ids
}
