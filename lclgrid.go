// Package lclgrid is a complete reproduction of "LCL problems on grids"
// (Brandt et al., PODC 2017): the complexity theory of locally checkable
// labelling problems on toroidal oriented grids in the LOCAL model.
//
// # Primary entry point: the request/response Engine layer
//
// The package is organised around four concepts that turn "solve LCL
// problem P on torus T" into a cancellable service call:
//
//   - SolveRequest is the unit of service: a problem (registry key or
//     inline *Problem), a torus shape, an identifier assignment and the
//     solver knobs, all JSON round-trippable.
//   - Solver is the uniform algorithm interface — Solve(ctx, t, ids,
//     opts) returns a structured *Result carrying the labelling, the
//     exact round account, the complexity Class, the solver name and a
//     verification status. Every algorithm of the paper is an adapter:
//     SynthesisSolver (§7 normal forms), GlobalSolver (the Θ(n) brute
//     force and unsolvability certificates), ConstantSolver (O(1)
//     problems), FourColorSolver (§8), EdgeColorSolver (§10) and
//     LMSolver (§6).
//   - Registry maps problem keys ("4col", "mis", "5edgecol",
//     "orient034", "lm:halt", ...) to ProblemSpecs: a constructor, the
//     paper's classification and the known best solver. Beyond the
//     registered keys it resolves the parameterised families "<k>col",
//     "<k>edgecol" and "orient<digits>". DefaultRegistry returns the
//     paper's catalogue.
//   - Engine serves requests — Solve(ctx, req) one at a time,
//     SolveStream(ctx, reqs) yielding results as they complete from a
//     bounded worker pool, SolveBatch(ctx, reqs) as the
//     order-preserving collector over the stream — and memoises SAT
//     syntheses in a pluggable SynthCache keyed by the canonical
//     Problem.Fingerprint plus the anchor power and window shape, so
//     repeated and concurrent requests pay the expensive synthesis once
//     per problem. Every Solve flows through the Planner → Plan →
//     Strategy pipeline: the Planner ranks the applicable strategies
//     (constant fill, direct algorithm, cached-table probe, normal-form
//     synthesis, Θ(n) baseline) from the registry spec, the
//     request options, the torus shape and a non-blocking cache probe —
//     with no SAT work, which is what Engine.Plan and `lclgrid explain`
//     expose — and the executor walks the stages, recording each
//     outcome in Result.Trace. Multi-shape synthesis, the
//     classification oracle, windowed labels and Engine.Warm all try
//     their (k, h, w) candidates strictly in schedule order and serve
//     the first lookup table, so identical requests serve identical
//     bytes at any parallelism. The cache is chosen at
//     construction (in-memory by default, LRU-bounded with
//     WithCacheCapacity, persisted across process restarts with
//     WithCacheDir; Engine.Warm pre-synthesizes a catalogue on
//     startup), and Observers installed with WithObserver receive every
//     request, plan, strategy, synthesis, cache, window and remote-cache
//     event as one Event value through a single Observe method. Context
//     cancellation reaches all the way into the tile enumeration and
//     the CDCL SAT loop, so a deadline aborts an in-flight synthesis
//     promptly.
//
// Beyond materializing solves, Engine.LabelWindow serves the paper's
// locality directly: because a synthesized normal form makes every
// node's output a pure local function of its anchor window, any
// rectangle of an arbitrarily large torus (up to 10^6 per side, 10^12
// nodes) is labelled in O(window + halo) work from the cached table —
// LabelRequest/LabelResponse on the wire, `lclgrid labels` on the
// command line, with a deterministic coordinate-addressable identifier
// assignment (AffineIDs) and an optional periodic-anchor lattice fast
// path. Engine.ExportGrid streams a whole grid in bounded-memory row
// bands.
//
// A Server mounts the engine behind HTTP (`lclgrid serve`): streaming
// solve and batch endpoints, windowed labels and whole-grid export
// endpoints with deterministic-response ETags, a registry catalogue and
// plan-explain endpoint, bounded in-flight admission with 429 shedding,
// per-request timeouts, graceful drain, and a dependency-free
// Prometheus /metrics exporter (MetricsObserver) fed by the same
// engine events.
//
// A minimal session:
//
//	eng := lclgrid.NewEngine()
//	res, err := eng.Solve(ctx, lclgrid.SolveRequest{Key: "4col", N: 32})
//	// res.Labels, res.Rounds, res.Class, res.Verification, res.Elapsed ...
//
// Batches coalesce duplicate syntheses and report aggregate stats, and
// streams yield each result the moment it is ready:
//
//	items, stats := eng.SolveBatch(ctx, reqs, lclgrid.WithWorkers(8))
//	for item, err := range eng.SolveStream(ctx, reqSeq) { ... }
//
// # The underlying pipeline
//
// The paper's machinery remains exported for direct use:
//
//   - Problem definitions in nearest-neighbour SFT form and a catalogue
//     of the paper's concrete problems (vertex/edge colouring,
//     X-orientations, MIS, matchings): NewProblem, VertexColoring,
//     EdgeColoring, XOrientation, MIS, MaximalMatching.
//   - The normal form A' ∘ S_k of §5/§7 and its automatic synthesis:
//     Synthesize, ClassifyOracle, DefaultWindow (Engine.Synthesize and
//     Engine.Classify are the cached equivalents).
//   - The Θ(n) brute-force baseline and solvability certificates:
//     SolveGlobal.
//   - The decidable 1-dimensional (cycle) theory of §4: CycleProblem and
//     friends in the internal/cycle package, re-exported here.
//   - The direct algorithms of §8 (4-colouring for any d) and §10
//     ((2d+1)-edge colouring): FourColor, EdgeColor5.
//   - The §6 undecidability gadget L_M: LM, HaltingWriter, RightLooper.
//   - The §9/§11 lower-bound invariants: BuildAux, Orient034Invariant.
//
// Runnable walkthroughs live in examples/ (see the README for a guided
// tour), and the benchmark harness in bench_test.go regenerates every
// quantitative claim of the paper — run `go test -bench=.` or `lclgrid
// experiments`.
package lclgrid

import (
	"context"

	"lclgrid/internal/coloring"
	"lclgrid/internal/coordination"
	"lclgrid/internal/core"
	"lclgrid/internal/cycle"
	"lclgrid/internal/edgecolor"
	"lclgrid/internal/grid"
	"lclgrid/internal/lcl"
	"lclgrid/internal/lm"
	"lclgrid/internal/local"
	"lclgrid/internal/logstar"
	"lclgrid/internal/tm"
	"lclgrid/internal/vertexcolor"
)

// --- Topology -------------------------------------------------------------

// Torus is a d-dimensional toroidal grid with a consistent orientation.
type Torus = grid.Torus

// Norm selects the metric for balls and graph powers (L1 or LInf).
type Norm = grid.Norm

// The two norms used by the paper.
const (
	L1   = grid.L1
	LInf = grid.LInf
)

// NewTorus creates a torus with the given side lengths.
func NewTorus(dims ...int) (*Torus, error) { return grid.New(dims...) }

// Square returns the paper's main setting: the 2-dimensional n×n torus.
func Square(n int) *Torus { return grid.Square(n) }

// Cycle returns the directed n-cycle (1-dimensional torus) of §4.
func Cycle(n int) *Torus { return grid.Cycle(n) }

// --- Identifiers and rounds -------------------------------------------------

// Rounds accumulates exact round complexity, including power-graph
// simulation overheads.
type Rounds = local.Rounds

// SequentialIDs returns the identifier assignment id[v] = v+1.
func SequentialIDs(n int) []int { return local.SequentialIDs(n) }

// PermutedIDs returns a deterministic pseudorandom identifier assignment.
func PermutedIDs(n int, seed int64) []int { return local.PermutedIDs(n, seed) }

// LogStar returns the iterated logarithm log*(n).
func LogStar(n int) int { return logstar.LogStar(n) }

// --- LCL problems -----------------------------------------------------------

// Problem is an LCL problem in nearest-neighbour SFT form.
type Problem = lcl.Problem

// NewProblem constructs a problem from per-dimension label relations.
func NewProblem(name string, labels []string, dims int, allow func(dim, a, b int) bool, nodeOK func(a int) bool) *Problem {
	return lcl.NewProblem(name, labels, dims, allow, nodeOK)
}

// VertexColoring returns the proper k-colouring problem.
func VertexColoring(k, dims int) *Problem { return lcl.VertexColoring(k, dims) }

// EdgeColoring returns the proper edge k-colouring problem.
func EdgeColoring(k, dims int) *lcl.EdgeColoringProblem { return lcl.EdgeColoring(k, dims) }

// XOrientation returns the X-orientation problem of §11.
func XOrientation(x []int, dims int) *lcl.OrientationProblem { return lcl.XOrientation(x, dims) }

// MIS returns the maximal independent set problem.
func MIS(dims int) *lcl.MISProblem { return lcl.MIS(dims) }

// MaximalMatching returns the maximal matching problem.
func MaximalMatching(dims int) *lcl.MatchingProblem { return lcl.MaximalMatching(dims) }

// EdgeColors is an explicit edge colouring, decodable to and from the
// SFT alphabet of EdgeColoring.
type EdgeColors = lcl.EdgeColors

// Orientation is an explicit edge orientation, decodable from the SFT
// alphabet of XOrientation.
type Orientation = lcl.Orientation

// OrientationFromLabels decodes an SFT labelling of an X-orientation
// problem into the explicit edge orientation.
func OrientationFromLabels(p *lcl.OrientationProblem, t *Torus, labelling []int) *Orientation {
	return lcl.OrientationFromLabels(p, t, labelling)
}

// IndependentSet returns the (trivial) independent set problem.
func IndependentSet(dims int) *Problem { return lcl.IndependentSet(dims) }

// --- Classification and synthesis (§5, §7) ----------------------------------

// Class is a complexity class: O(1), Θ(log* n) or Θ(n).
type Class = core.Class

// The complexity classes of the paper's classification theorem.
const (
	ClassUnknown = core.ClassUnknown
	ClassO1      = core.ClassO1
	ClassLogStar = core.ClassLogStar
	ClassGlobal  = core.ClassGlobal
)

// Synthesized is a normal-form algorithm A' ∘ S_k produced by synthesis.
type Synthesized = core.Synthesized

// ErrUnsatisfiable reports that no lookup table exists for the chosen
// parameters (the problem may still be Θ(log* n) for larger k).
var ErrUnsatisfiable = core.ErrUnsatisfiable

// ErrTorusTooSmall reports that a synthesized normal form does not apply
// on the given torus (below its MinTorusSide); Engine.Solve falls back to
// the Θ(n) baseline in that case unless synthesis was forced.
var ErrTorusTooSmall = core.ErrTorusTooSmall

// ErrNotATile reports that a normal form met an anchor window that is
// not one of its tiles: a fault in S_k, in A′ or in a cached table, never
// a property of the request. Engine.Solve returns it at once, without
// trying a later plan stage.
var ErrNotATile = core.ErrNotATile

// IsContextError reports whether err is a context cancellation or
// deadline expiry — the distinction between an aborted request and a
// failed one, used by services to decide retries and exit codes.
func IsContextError(err error) bool { return core.IsContextError(err) }

// Synthesize searches for a normal-form algorithm with anchor power k and
// h×w anchor windows (§7). Cancelling ctx aborts the tile enumeration or
// the SAT search at the next checkpoint with the context's error.
func Synthesize(ctx context.Context, p *Problem, k, h, w int) (*Synthesized, error) {
	return core.Synthesize(ctx, p, k, h, w)
}

// DefaultWindow returns the window shape the paper uses for power k
// (3×2 for k=1, 7×5 for k=3).
func DefaultWindow(k int) (h, w int) { return core.DefaultWindow(k) }

// MinTorusSide returns the smallest torus side on which a normal form
// with anchor power k and h×w windows is guaranteed correct — the
// fail-fast bound the Planner annotates each PlanAttempt with and the
// synthesis solvers check before paying for a SAT call.
func MinTorusSide(k, h, w int) int { return core.MinTorusSideFor(k, h, w) }

// OracleResult is the outcome of the one-sided classification oracle.
type OracleResult = core.OracleResult

// ClassifyOracle runs the one-sided classification oracle of §7 without
// caching; Engine.Classify is the cached equivalent. Cancelling ctx
// aborts the shape schedule (OracleResult.Err carries the context's
// error).
func ClassifyOracle(ctx context.Context, p *Problem, maxK int) OracleResult {
	return core.ClassifyOracle(ctx, p, maxK)
}

// SolveGlobal decides solvability of p on t and returns a solution — the
// Θ(n) brute-force baseline and unsolvability certificate generator. The
// error is non-nil exactly when ctx was cancelled, in which case the
// solvability answer is meaningless.
func SolveGlobal(ctx context.Context, p *Problem, t *Torus) ([]int, bool, error) {
	return core.SolveGlobal(ctx, p, t)
}

// Diameter returns the torus diameter (the brute-force round cost).
func Diameter(t *Torus) int { return core.Diameter(t) }

// Anchors computes S_k: a maximal independent set of the k-th power of
// the torus, in O(log* n) rounds.
func Anchors(t *Torus, k int, norm Norm, ids []int, r *Rounds) []bool {
	return coloring.Anchors(t, k, norm, ids, r)
}

// --- The 1-dimensional theory (§4) -------------------------------------------

// CycleProblem is an LCL problem on directed cycles given by feasible
// windows.
type CycleProblem = cycle.Problem

// CycleAlgorithm is a synthesized optimal algorithm for a cycle problem.
type CycleAlgorithm = cycle.Algorithm

// NewCycleProblem builds a cycle problem from its feasible windows.
func NewCycleProblem(name string, labels []string, r int, windows [][]int) *CycleProblem {
	return cycle.NewProblem(name, labels, r, windows)
}

// CycleFromSFT converts a 1-dimensional SFT problem to window form.
func CycleFromSFT(p *Problem) *CycleProblem { return cycle.FromSFT(p) }

// CycleTwoColoring, CycleThreeColoring, CycleMIS and CycleIndependentSet
// are the Fig. 2 catalogue.
func CycleTwoColoring() *CycleProblem   { return cycle.TwoColoring() }
func CycleThreeColoring() *CycleProblem { return cycle.ThreeColoring() }
func CycleMIS() *CycleProblem           { return cycle.MIS() }
func CycleIndependentSet() *CycleProblem {
	return cycle.IndependentSet()
}

// --- Direct algorithms (§8, §10) ---------------------------------------------

// FourColor runs the §8 algorithm: a proper 4-colouring of a
// d-dimensional torus (d >= 2) in Θ(log* n) rounds, retrying the ball
// parameter ℓ until the conflict colouring succeeds. It returns the
// colouring and the ℓ used.
func FourColor(t *Torus, ids []int, r *Rounds) ([]int, int, error) {
	return vertexcolor.RunAuto(t, ids, r)
}

// EdgeColorParams are the §10 constants.
type EdgeColorParams = edgecolor.Params

// EdgeColor5 runs the §10 algorithm with the paper's constants: a proper
// (2d+1)-edge colouring in Θ(log* n) rounds. The zero Params select the
// paper's defaults (which require torus sides of at least 679 for d=2).
func EdgeColor5(t *Torus, ids []int, params EdgeColorParams) (*lcl.EdgeColors, *Rounds, error) {
	return edgecolor.Run(t, ids, params)
}

// --- Undecidability (§6) -------------------------------------------------------

// TuringMachine is a deterministic single-tape Turing machine.
type TuringMachine = tm.Machine

// LMProblem is the undecidability gadget L_M.
type LMProblem = lm.Problem

// LM returns the L_M problem for machine m: Θ(log* n)-solvable iff m
// halts on the empty tape, Θ(n) otherwise (Theorem 3).
func LM(m *TuringMachine) *LMProblem { return lm.New(m) }

// HaltingWriter returns a machine halting in exactly `steps` steps.
func HaltingWriter(steps int) *TuringMachine { return tm.HaltingWriter(steps) }

// RightLooper returns a machine that never halts.
func RightLooper() *TuringMachine { return tm.RightLooper() }

// --- Lower-bound machinery (§9, §11) -------------------------------------------

// BuildAux constructs the §9 auxiliary graph of a greedy 3-colouring; its
// Invariant method verifies Lemmas 12 and 14.
func BuildAux(t *Torus, colors []int) *coordination.Aux { return coordination.BuildAux(t, colors) }

// MakeGreedy converts a proper 3-colouring into a greedy one.
func MakeGreedy(t *Torus, colors []int) []int { return coordination.MakeGreedy(t, colors) }

// Orient034Invariant computes the Theorem 25 invariant of a
// {0,3,4}-orientation.
func Orient034Invariant(o *lcl.Orientation) (int, error) {
	return coordination.Orient034Invariant(o)
}
