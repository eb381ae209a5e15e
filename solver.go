package lclgrid

import (
	"context"
	"errors"
	"fmt"

	"lclgrid/internal/core"
	"lclgrid/internal/edgecolor"
	"lclgrid/internal/lcl"
	"lclgrid/internal/lm"
	"lclgrid/internal/local"
	"lclgrid/internal/vertexcolor"
)

// Solver is the uniform "solve LCL problem P on torus T" interface: every
// algorithm of the paper — synthesized normal forms, the direct §8/§10
// algorithms, the Θ(n) brute force, the L_M constructions — is exposed as
// an adapter implementing it. Solvers are safe for concurrent use.
type Solver interface {
	// Name identifies the algorithm for Result.Solver.
	Name() string
	// Solve runs the algorithm on the torus with the given identifier
	// assignment (nil selects sequential identifiers) and returns a
	// structured Result. The labelling is verified unless
	// WithVerify(false) is passed. Cancelling ctx aborts the run: an
	// already-cancelled context returns its error before any work, and
	// solvers backed by a SAT search (synthesis, global brute force)
	// abort an in-flight search at the next checkpoint.
	Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error)
}

// ErrUnsolvable reports that the problem has no solution at all on the
// given torus (an unsolvability certificate, e.g. 2-colouring an odd
// torus).
var ErrUnsolvable = errors.New("lclgrid: problem has no solution on this torus")

func fillIDs(t *Torus, ids []int) []int {
	if ids == nil {
		return SequentialIDs(t.N())
	}
	return ids
}

// verifyInto checks the labelling and stamps the Result, translating a
// rejection into an error.
func verifyInto(p *Problem, t *Torus, res *Result, o *Options) error {
	if !o.Verify {
		res.Verification = Unverified
		return nil
	}
	if err := p.Verify(t, res.Labels); err != nil {
		res.Verification = VerifyFailed
		return fmt.Errorf("lclgrid: %s output rejected: %w", res.Solver, err)
	}
	res.Verification = Verified
	return nil
}

// --- Synthesized normal forms (§7) -----------------------------------------

// SynthAttempt is one (power, window) shape a SynthesisSolver tries.
type SynthAttempt struct {
	K int `json:"k"`
	H int `json:"h"`
	W int `json:"w"`
}

// SynthesisSolver solves a problem by a synthesized normal-form algorithm
// A' ∘ S_k (§7). It tries its attempt shapes strictly in order and runs
// the first that admits a lookup table. Synthesis goes through the
// Engine's cache when one is attached, so repeated solves pay the SAT
// cost once per problem fingerprint.
type SynthesisSolver struct {
	Problem  *Problem
	Attempts []SynthAttempt
	// Engine, when non-nil, provides cached synthesis.
	Engine *Engine
}

// NewSynthesisSolver returns a solver trying the single shape (k, h, w);
// an h or w of 0 takes that side of DefaultWindow(k).
func NewSynthesisSolver(e *Engine, p *Problem, k, h, w int) *SynthesisSolver {
	return &SynthesisSolver{Problem: p, Attempts: []SynthAttempt{forcedAttempt(k, h, w)}, Engine: e}
}

// forcedAttempt resolves the shape a forced power k names: h and w
// default separately, each 0 selecting that side of DefaultWindow(k).
func forcedAttempt(k, h, w int) SynthAttempt {
	dh, dw := DefaultWindow(k)
	if h == 0 {
		h = dh
	}
	if w == 0 {
		w = dw
	}
	return SynthAttempt{K: k, H: h, W: w}
}

// Name implements Solver.
func (s *SynthesisSolver) Name() string { return "normal-form synthesis" }

// synthesize runs one attempt, through the engine cache when available.
func (s *SynthesisSolver) synthesize(ctx context.Context, a SynthAttempt) (*core.Synthesized, bool, error) {
	if s.Engine != nil {
		return s.Engine.Synthesize(ctx, s.Problem, a.K, a.H, a.W)
	}
	alg, err := core.Synthesize(ctx, s.Problem, a.K, a.H, a.W)
	return alg, false, err
}

// synthesizeFirst is the one shape sweep behind every multi-shape
// synthesis — the planner's oracle stage, SynthesisSolver (with or
// without an engine), LabelWindow, ExportGrid and Engine.Warm. It tries
// the attempts strictly in schedule order through synth and returns the
// first that admits a lookup table, so which normal form serves depends
// only on the attempts, never on timing or parallelism. A cancelled ctx
// returns its error at once; when no shape succeeds, the error is the
// first failure in schedule order. attempts must be non-empty.
func synthesizeFirst(ctx context.Context, attempts []SynthAttempt, synth func(context.Context, SynthAttempt) (*Synthesized, bool, error)) (*Synthesized, SynthAttempt, bool, error) {
	var firstErr error
	for _, a := range attempts {
		alg, cached, err := synth(ctx, a)
		if err == nil {
			return alg, a, cached, nil
		}
		if isCtxErr(err) {
			return nil, SynthAttempt{}, false, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, SynthAttempt{}, false, firstErr
}

// attemptFits reports whether the torus meets the attempt shape's
// minimum side — the fail-fast check run before paying for a synthesis
// the torus cannot use.
func attemptFits(t *Torus, a SynthAttempt) bool {
	min := core.MinTorusSideFor(a.K, a.H, a.W)
	return t.Dim() != 2 || (t.NX() >= min && t.NY() >= min)
}

// Solve implements Solver.
func (s *SynthesisSolver) Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	attempts := s.Attempts
	if o.Power > 0 {
		attempts = []SynthAttempt{forcedAttempt(o.Power, o.H, o.W)}
	}
	if len(attempts) == 0 {
		// A solver nobody gave attempt shapes to has not proven anything
		// unsatisfiable — say so instead of blaming the SAT solver.
		return nil, fmt.Errorf("lclgrid: synthesis solver for %s has no attempts configured (set Attempts or force a power)", s.Problem.Name())
	}
	// Fail fast before paying for syntheses the torus cannot run: the
	// minimum side depends only on the attempt's shape.
	fitting := make([]SynthAttempt, 0, len(attempts))
	var tooSmallErr error
	for _, a := range attempts {
		if attemptFits(t, a) {
			fitting = append(fitting, a)
		} else if tooSmallErr == nil {
			tooSmallErr = core.TorusTooSmallError(a.K, a.H, a.W)
		}
	}
	if len(fitting) == 0 {
		return nil, fmt.Errorf("lclgrid: no normal-form table for %s at the tried shapes: %w", s.Problem.Name(), tooSmallErr)
	}

	alg, winner, cached, err := synthesizeFirst(ctx, fitting, s.synthesize)
	if err != nil {
		if isCtxErr(err) {
			return nil, err
		}
		if tooSmallErr != nil {
			// Some shapes never ran because the torus is too small; report
			// that alongside the failures so Engine-level fallback to the
			// Θ(n) baseline still triggers regardless of attempt order.
			err = fmt.Errorf("%w (and: %v)", tooSmallErr, err)
		}
		return nil, fmt.Errorf("lclgrid: no normal-form table for %s at the tried shapes: %w", s.Problem.Name(), err)
	}
	return s.serve(t, ids, alg, winner, cached, &o)
}

// serve runs the normal form synthesized for the winner shape on the
// torus and returns the Result, verified unless o turns that off.
func (s *SynthesisSolver) serve(t *Torus, ids []int, alg *Synthesized, winner SynthAttempt, cached bool, o *Options) (*Result, error) {
	out, rounds, err := alg.Run(t, fillIDs(t, ids))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Problem:  s.Problem.Name(),
		Solver:   s.Name(),
		Class:    ClassLogStar, // a successful synthesis proves Θ(log* n)
		Labels:   out,
		Rounds:   rounds.Total(),
		CacheHit: cached,
		Note:     fmt.Sprintf("k=%d window %dx%d, %d tiles", winner.K, winner.H, winner.W, alg.Graph.NumTiles()),
	}
	if err := verifyInto(s.Problem, t, res, o); err != nil {
		return res, err
	}
	return res, nil
}

// --- Global brute force (Θ(n) baseline) ------------------------------------

// GlobalSolver solves by the Θ(n) gather-and-solve baseline: every node
// collects the whole torus (Diameter rounds) and the tiling is decided by
// the SAT encoding of core.SolveGlobal. It doubles as the unsolvability
// certificate generator: ErrUnsolvable is returned when no labelling
// exists.
type GlobalSolver struct {
	Problem *Problem
	// KnownClass is the paper's classification of the problem, recorded
	// in the Result (ClassUnknown when only conjectured).
	KnownClass Class
}

// Name implements Solver.
func (s *GlobalSolver) Name() string { return "global brute force" }

// Solve implements Solver.
func (s *GlobalSolver) Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	out, ok, rounds, err := core.SolveGlobalWithRounds(ctx, s.Problem, t)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("lclgrid: %s on torus %v: %w", s.Problem.Name(), t.Sides(), ErrUnsolvable)
	}
	res := &Result{
		Problem: s.Problem.Name(),
		Solver:  s.Name(),
		Class:   s.KnownClass,
		Labels:  out,
		Rounds:  rounds.Total(),
		Note:    "gathered the whole torus",
	}
	if err := verifyInto(s.Problem, t, res, &o); err != nil {
		return res, err
	}
	return res, nil
}

// --- Constant solutions (O(1) problems) ------------------------------------

// ConstantSolver solves trivial problems in zero rounds by filling the
// grid with a constant solution label (§6: exactly the O(1) problems on
// toroidal grids admit one).
type ConstantSolver struct {
	Problem *Problem
}

// Name implements Solver.
func (s *ConstantSolver) Name() string { return "constant fill" }

// Solve implements Solver.
func (s *ConstantSolver) Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	consts := s.Problem.ConstantSolutions()
	if len(consts) == 0 {
		return nil, fmt.Errorf("lclgrid: %s has no constant solution (not an O(1) problem)", s.Problem.Name())
	}
	out := make([]int, t.N())
	for v := range out {
		out[v] = consts[0]
	}
	res := &Result{
		Problem: s.Problem.Name(),
		Solver:  s.Name(),
		Class:   ClassO1,
		Labels:  out,
		Rounds:  0,
		Note:    fmt.Sprintf("constant label %q", s.Problem.Label(consts[0])),
	}
	if err := verifyInto(s.Problem, t, res, &o); err != nil {
		return res, err
	}
	return res, nil
}

// --- Direct 4-colouring (§8) ------------------------------------------------

// FourColorSolver runs the §8 direct algorithm: a proper 4-colouring of a
// d-dimensional torus (d >= 2) in Θ(log* n) rounds, retrying the ball
// parameter ℓ until the conflict colouring succeeds (or using the fixed ℓ
// of WithEll).
type FourColorSolver struct{}

// Name implements Solver.
func (FourColorSolver) Name() string { return "§8 direct 4-colouring" }

// Solve implements Solver.
func (s FourColorSolver) Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	ids = fillIDs(t, ids)
	var rounds local.Rounds
	var out []int
	var ell int
	var err error
	if o.Ell > 0 {
		ell = o.Ell
		out, err = vertexcolor.Run(t, ids, ell, &rounds)
	} else {
		out, ell, err = vertexcolor.RunAuto(t, ids, &rounds)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		// Name the problem through the catalogue constructor so the
		// display name agrees with the registry and verifier everywhere.
		Problem: lcl.VertexColoring(4, t.Dim()).Name(),
		Solver:  s.Name(),
		Class:   ClassLogStar,
		Labels:  out,
		Rounds:  rounds.Total(),
		Note:    fmt.Sprintf("ell=%d", ell),
	}
	if err := verifyInto(lcl.VertexColoring(4, t.Dim()), t, res, &o); err != nil {
		return res, err
	}
	return res, nil
}

// --- Direct (2d+1)-edge colouring (§10) -------------------------------------

// EdgeColorSolver runs the §10 direct algorithm: a proper
// (2d+1)-edge-colouring in Θ(log* n) rounds. KColors >= 2d+1 selects the
// SFT alphabet the result is encoded in (a proper 5-colouring is a proper
// k-colouring for every k >= 5). The paper's default constants require
// torus sides above 679 for d = 2; override with WithEdgeColorParams.
type EdgeColorSolver struct {
	KColors int
	Params  EdgeColorParams
}

// Name implements Solver.
func (s *EdgeColorSolver) Name() string { return "§10 direct edge colouring" }

// Solve implements Solver.
func (s *EdgeColorSolver) Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	params := s.Params
	if o.EdgeParams != (EdgeColorParams{}) {
		params = o.EdgeParams
	}
	colors, rounds, err := edgecolor.Run(t, fillIDs(t, ids), params)
	if err != nil {
		return nil, err
	}
	kc := s.KColors
	if kc == 0 {
		kc = 2*t.Dim() + 1
	}
	ep := lcl.EdgeColoring(kc, t.Dim())
	labels, err := colors.ToLabels(ep)
	if err != nil {
		return nil, fmt.Errorf("lclgrid: edge colouring does not encode into the %d-colour SFT alphabet: %w", kc, err)
	}
	res := &Result{
		Problem: ep.Name(),
		Solver:  s.Name(),
		Class:   ClassLogStar,
		Labels:  labels,
		Decoded: colors,
		Rounds:  rounds.Total(),
		Note:    fmt.Sprintf("%d row colours plus one special cutting colour", 2*t.Dim()),
	}
	if err := verifyInto(ep.Problem, t, res, &o); err != nil {
		return res, err
	}
	return res, nil
}

// --- The L_M undecidability gadget (§6) --------------------------------------

// LMSolver solves the L_M problem for a fixed machine M: when M halts
// within MaxSteps and the torus sides are multiples of the tile size, the
// Θ(log* n)-style P2 tiling is constructed; otherwise it falls back to
// the P1 escape (a proper 3-colouring), which is inherently Θ(n). The
// labelling is returned in Result.Decoded as []lm.Label (L_M has no int
// SFT encoding in this codebase).
type LMSolver struct {
	LM *LMProblem
	// Halts records whether M is known to halt (fixes Result.Class:
	// Θ(log* n) for halting machines, Θ(n) otherwise — Theorem 3).
	Halts bool
}

// Name implements Solver.
func (s *LMSolver) Name() string { return "§6 L_M construction" }

// idFree: the L_M constructions read no identifiers.
func (*LMSolver) idFree() {}

// Solve implements Solver.
func (s *LMSolver) Solve(ctx context.Context, t *Torus, ids []int, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	class := ClassGlobal
	if s.Halts {
		class = ClassLogStar
	}
	res := &Result{
		Problem: fmt.Sprintf("L_M for %s", s.LM.M.Name),
		Solver:  s.Name(),
		Class:   class,
	}
	if labels, m, err := s.solveP2(t, o.MaxSteps); err == nil {
		res.Decoded = labels
		// Every node reads its tile from anchors within the tile size in
		// each coordinate: a constant-radius gather once anchors exist.
		res.Rounds = 2 * m
		res.Note = fmt.Sprintf("P2 lattice tiling, tile size %d", m)
	} else {
		labels, rounds, p1err := s.LM.SolveP1(t)
		if p1err != nil {
			return nil, fmt.Errorf("lclgrid: L_M P2 construction failed (%v) and P1 escape failed: %w", err, p1err)
		}
		res.Decoded = labels
		res.Rounds = rounds.Total()
		res.Note = fmt.Sprintf("P1 3-colouring escape (P2 unavailable: %v)", err)
	}
	if o.Verify {
		if err := s.LM.Verify(t, res.Decoded.([]lm.Label)); err != nil {
			res.Verification = VerifyFailed
			return res, fmt.Errorf("lclgrid: L_M output rejected: %w", err)
		}
		res.Verification = Verified
	}
	return res, nil
}

// solveP2 attempts the P2 lattice construction and reports the tile size
// used.
func (s *LMSolver) solveP2(t *Torus, maxSteps int) ([]lm.Label, int, error) {
	table, err := s.LM.M.Run(maxSteps)
	if err != nil {
		return nil, 0, err
	}
	labels, err := s.LM.SolveLattice(t, maxSteps)
	if err != nil {
		return nil, 0, err
	}
	return labels, lm.TileSize(table.Steps), nil
}
