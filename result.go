package lclgrid

import (
	"fmt"
	"time"
)

// VerifyStatus records whether a Result's labelling was checked against
// the problem definition.
type VerifyStatus int

const (
	// Unverified means verification was skipped (WithVerify(false)).
	Unverified VerifyStatus = iota
	// Verified means the labelling passed the problem's checker.
	Verified
	// VerifyFailed means the labelling was rejected; solvers return an
	// error alongside, so a VerifyFailed Result is only seen by callers
	// that inspect partial results.
	VerifyFailed
)

// String implements fmt.Stringer.
func (s VerifyStatus) String() string {
	switch s {
	case Verified:
		return "verified"
	case VerifyFailed:
		return "verification failed"
	default:
		return "unverified"
	}
}

// verifyTokens are the stable wire names used by the JSON encoding.
var verifyTokens = map[VerifyStatus]string{
	Unverified:   "unverified",
	Verified:     "verified",
	VerifyFailed: "failed",
}

// MarshalText encodes the status as its wire token ("unverified",
// "verified", "failed"), making VerifyStatus round-trippable through
// encoding/json.
func (s VerifyStatus) MarshalText() ([]byte, error) {
	tok, ok := verifyTokens[s]
	if !ok {
		return nil, fmt.Errorf("lclgrid: cannot marshal invalid verify status %d", int(s))
	}
	return []byte(tok), nil
}

// UnmarshalText decodes a wire token produced by MarshalText.
func (s *VerifyStatus) UnmarshalText(b []byte) error {
	for st, tok := range verifyTokens {
		if tok == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("lclgrid: unknown verify status token %q", b)
}

// Result is the structured outcome of a Solver run: the labelling, the
// exact round account, the complexity class of the problem, the solver
// that produced it and its verification status. It is the uniform return
// shape of every solver adapter and of Engine.Solve, and it is JSON
// round-trippable (Class and Verification marshal as stable text tokens;
// Decoded is solver-native and excluded from the wire form).
type Result struct {
	// Problem is the display name of the problem instance.
	Problem string `json:"problem"`
	// Solver names the algorithm that produced the labelling.
	Solver string `json:"solver"`
	// Class is the complexity class of the problem: what the run proves
	// (a successful synthesis proves Θ(log* n)) or the paper's known
	// classification for the registered problem.
	Class Class `json:"class"`
	// Labels is the labelling in the problem's SFT alphabet, indexed by
	// node. It is nil for problems without an SFT encoding in this
	// codebase (the L_M gadget); Decoded then carries the labelling.
	Labels []int `json:"labels,omitempty"`
	// Decoded optionally carries the solver-native structure: a
	// *lclgrid.EdgeColors for edge colourings, []lm.Label for L_M. It is
	// not part of the JSON wire form.
	Decoded any `json:"-"`
	// Rounds is the exact LOCAL round account of the run, including
	// power-graph simulation overheads.
	Rounds int `json:"rounds"`
	// Verification reports whether the labelling was checked.
	Verification VerifyStatus `json:"verification"`
	// CacheHit reports that the run reused an engine-cached synthesis
	// instead of re-running the SAT synthesizer.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Note is a short solver-specific detail for humans (chosen
	// parameters, fallback paths).
	Note string `json:"note,omitempty"`
	// Elapsed is the wall-clock duration of the request, stamped by
	// Engine.Solve and Engine.SolveBatch (zero when the solver adapter is
	// called directly). It marshals as integer nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Trace records the fate of every stage of the Plan the engine
	// executed for the request — skipped strategies, failed attempts and
	// the stage that produced this result, in plan order. It is stamped
	// by Engine.Solve only (nil when a solver adapter is called
	// directly) and is deliberately excluded from Result's wire form so
	// service output is stable; each TraceStep is itself
	// JSON-marshallable (see the TraceStep schema), so callers that want
	// the trace on the wire marshal res.Trace explicitly. `lclgrid
	// explain` prints the corresponding plan without solving.
	Trace []TraceStep `json:"-"`
}

// String implements fmt.Stringer with a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s via %s: %s, %d rounds, %s", r.Problem, r.Solver, r.Class, r.Rounds, r.Verification)
	if r.Note != "" {
		s += " (" + r.Note + ")"
	}
	return s
}

// Options collects the per-call knobs of Solver.Solve and the batch
// execution knobs of Engine.SolveBatch. Construct with the With*
// functional options; zero knobs select the registered solver's
// defaults. Request-level knobs arrive through SolveRequest fields when
// solving through Engine.Solve.
type Options struct {
	// Verify enables checking the labelling against the problem
	// definition (default true).
	Verify bool
	// Power forces the synthesis path with this anchor power; 0 keeps
	// the solver's default strategy.
	Power int
	// H, W override the anchor window shape when Power is set; each 0
	// selects that side of DefaultWindow(Power).
	H, W int
	// MaxPower bounds the powers tried by auto-classification solvers
	// (default 3, the paper's largest).
	MaxPower int
	// Ell is the §8 ball parameter for the direct 4-colouring; 0 retries
	// automatically.
	Ell int
	// EdgeParams are the §10 constants; the zero value selects the
	// paper's defaults.
	EdgeParams EdgeColorParams
	// MaxSteps bounds the Turing-machine simulation of L_M solvers
	// (default 100).
	MaxSteps int
	// Workers bounds the worker pool of Engine.SolveBatch; 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Option is a functional option for Solver.Solve (all knobs) and
// Engine.SolveBatch (batch-level knobs only — WithWorkers; per-request
// knobs travel inside each SolveRequest).
type Option func(*Options)

func buildOptions(opts []Option) Options {
	o := Options{Verify: true, MaxPower: 3, MaxSteps: 100}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// withOptions replaces the whole option set at once; the engine uses it
// to hand a SolveRequest's resolved options to a solver adapter.
func withOptions(o Options) Option { return func(dst *Options) { *dst = o } }

// WithVerify toggles labelling verification (on by default).
func WithVerify(v bool) Option { return func(o *Options) { o.Verify = v } }

// WithPower forces synthesis with anchor power k instead of the
// registered solver's default strategy.
func WithPower(k int) Option { return func(o *Options) { o.Power = k } }

// WithWindow overrides the anchor window shape used with WithPower.
func WithWindow(h, w int) Option { return func(o *Options) { o.H, o.W = h, w } }

// WithMaxPower bounds the anchor powers tried by auto-classifying
// solvers.
func WithMaxPower(k int) Option { return func(o *Options) { o.MaxPower = k } }

// WithEll fixes the §8 ball parameter instead of the automatic retry.
func WithEll(ell int) Option { return func(o *Options) { o.Ell = ell } }

// WithEdgeColorParams overrides the §10 constants.
func WithEdgeColorParams(p EdgeColorParams) Option {
	return func(o *Options) { o.EdgeParams = p }
}

// WithMaxSteps bounds the Turing-machine simulation of L_M solvers.
func WithMaxSteps(n int) Option { return func(o *Options) { o.MaxSteps = n } }

// WithWorkers bounds the Engine.SolveBatch worker pool (default
// runtime.GOMAXPROCS(0)).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }
