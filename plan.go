package lclgrid

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lclgrid/internal/core"
)

// StrategyKind names one way the engine can serve a request. The
// Planner ranks strategies into a Plan; the plan executor runs them in
// order until one succeeds.
type StrategyKind string

const (
	// StrategyConstant fills the grid with a constant solution label
	// (O(1) problems, zero rounds).
	StrategyConstant StrategyKind = "constant-fill"
	// StrategyDirect runs a hand-written algorithm adapter (§8, §10,
	// the §6 L_M construction, or a caller-supplied Solver).
	StrategyDirect StrategyKind = "direct"
	// StrategyCached serves a normal form whose lookup table is already
	// in the synthesis cache — no SAT work at all.
	StrategyCached StrategyKind = "cached-table"
	// StrategySynthesis searches for a normal-form lookup table (§7),
	// trying the (k, h, w) candidates in order until one admits a table.
	StrategySynthesis StrategyKind = "synthesis"
	// StrategyBaseline runs the Θ(n) gather-and-solve brute force —
	// either as the problem's primary strategy or as the fallback when
	// a normal form needs a larger torus than the request asked for.
	StrategyBaseline StrategyKind = "baseline"
)

// PlanAttempt is one normal-form shape annotated for planning: the
// smallest torus side it supports, whether the request's torus meets it,
// and whether a completed outcome for it is already cached.
type PlanAttempt struct {
	K       int  `json:"k"`
	H       int  `json:"h"`
	W       int  `json:"w"`
	MinSide int  `json:"min_side"`
	Fits    bool `json:"fits"`
	Cached  bool `json:"cached,omitempty"`
}

// PlannedStrategy is one ranked stage of a Plan. Skip non-empty means
// the planner already knows the stage cannot run for this request (it is
// recorded as skipped in the Result's Trace); Fallback marks the Θ(n)
// stage that runs only when the preceding synthesis failed because the
// torus is below the normal form's minimum side. Observers receive the
// strategy by pointer and must treat it as read-only.
type PlannedStrategy struct {
	Kind     StrategyKind  `json:"kind"`
	Solver   string        `json:"solver,omitempty"`
	Attempts []PlanAttempt `json:"attempts,omitempty"`
	Reason   string        `json:"reason,omitempty"`
	Skip     string        `json:"skip,omitempty"`
	Fallback bool          `json:"fallback,omitempty"`

	// run executes the stage; nil exactly when Skip is set.
	run func(ctx context.Context) (*Result, error)
	// skipErr carries the canonical error of a planner-skipped stage
	// (e.g. the ErrTorusTooSmall that arms the fallback gate).
	skipErr error
}

// Plan is the ranked strategy list the Planner builds for one request —
// everything Engine.Solve will do, decided up front from the registry
// spec, the request options, the torus shape and a non-blocking cache
// probe, with no SAT work. `lclgrid explain` prints it; the executor
// runs it and records each stage's outcome in Result.Trace.
type Plan struct {
	// Key is the registry key the request named ("" for inline problems).
	Key string `json:"key,omitempty"`
	// Problem is the display name of the problem instance.
	Problem string `json:"problem"`
	// Class is the registered classification (ClassUnknown for inline
	// problems until the oracle runs).
	Class Class `json:"class"`
	// Sides is the resolved torus shape.
	Sides []int `json:"sides"`
	// Strategies is the ranked stage list.
	Strategies []PlannedStrategy `json:"strategies"`

	torus *Torus
	ids   *idSource
	opts  Options
}

// String implements fmt.Stringer with a compact one-line-per-stage form.
func (p *Plan) String() string {
	s := fmt.Sprintf("plan for %s on torus %v (%v):", p.Problem, p.Sides, p.Class)
	for i := range p.Strategies {
		st := &p.Strategies[i]
		line := fmt.Sprintf("\n  %d. %s", i+1, st.Kind)
		if st.Solver != "" {
			line += " [" + st.Solver + "]"
		}
		for _, a := range st.Attempts {
			line += fmt.Sprintf(" k=%d %dx%d", a.K, a.H, a.W)
		}
		if st.Skip != "" {
			line += " — skipped: " + st.Skip
		} else if st.Reason != "" {
			line += " — " + st.Reason
		}
		s += line
	}
	return s
}

// TraceOutcome is the recorded fate of one plan stage.
type TraceOutcome string

const (
	// TraceOK: the stage produced the result.
	TraceOK TraceOutcome = "ok"
	// TraceFailed: the stage ran and failed; the executor moved on (or
	// returned its error when no later stage applied).
	TraceFailed TraceOutcome = "failed"
	// TraceSkipped: the stage never ran — the planner ruled it out, or
	// its gate (fallback-only) did not open.
	TraceSkipped TraceOutcome = "skipped"
)

// TraceStep records one plan stage's outcome in Result.Trace. It is
// JSON-marshallable ({"strategy":"synthesis","outcome":"ok",
// "detail":"k=1 window 3x3, 97 tiles","elapsed_ns":123456}); the trace
// itself is deliberately excluded from Result's wire form — marshal
// res.Trace directly when a service wants to ship it.
type TraceStep struct {
	Strategy StrategyKind  `json:"strategy"`
	Outcome  TraceOutcome  `json:"outcome"`
	Detail   string        `json:"detail,omitempty"`
	Elapsed  time.Duration `json:"elapsed_ns,omitempty"`
}

// Planner builds Plans from SolveRequests: registry spec (or inline
// problem), request options, torus shape and the engine's non-blocking
// SynthCache.Contains probe. Planning performs no SAT work — that is
// what makes `lclgrid explain` free — and no solver runs until the
// executor walks the plan.
type Planner struct {
	e *Engine
}

// Planner returns the engine's request planner.
func (e *Engine) Planner() *Planner { return &Planner{e: e} }

// Plan builds the ranked plan for req without solving it — the
// explainability entry point. Engine.Solve builds the identical plan
// internally, so the printed strategies are exactly what a Solve of the
// same request would execute (modulo cache churn between the two calls).
func (e *Engine) Plan(req SolveRequest) (*Plan, error) { return e.Planner().Plan(req) }

// errNoNormalForm marks the one-sided oracle exhausting its power budget
// without finding a normal form: the problem is conjectured global and
// the baseline fallback stage takes over.
var errNoNormalForm = errors.New("no normal form found within the power budget (one-sided oracle: conjectured Θ(n))")

// fallbackTriggers reports whether a failed stage's error arms the
// Θ(n) fallback stage: a normal form that needs a larger torus, or an
// oracle that found no normal form at all. Any other failure (UNSAT at
// every shape with a big-enough torus, a rejected labelling, an
// unsolvable instance) is the request's real answer.
func fallbackTriggers(err error) bool {
	return errors.Is(err, ErrTorusTooSmall) || errors.Is(err, errNoNormalForm)
}

// RequestError marks a request-shaped failure: the request itself —
// not the problem instance — is unserveable (bad document, unknown
// key, shape beyond the wire bounds, mismatched dimensions or ids).
// Every error Planner.Plan returns is one, which is how services
// separate client errors (HTTP 400) from solver outcomes without
// re-planning: errors.As on the error from Engine.Solve.
type RequestError struct {
	Err error
}

func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RequestError) Unwrap() error { return e.Err }

// Plan builds the ranked plan for req; see Engine.Plan. All errors are
// request-shaped and returned wrapped in *RequestError.
func (pl *Planner) Plan(req SolveRequest) (*Plan, error) {
	plan, err := pl.plan(req)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	return plan, nil
}

// plan is Plan without the RequestError wrapping.
func (pl *Planner) plan(req SolveRequest) (*Plan, error) {
	e := pl.e
	// Wire validation first: requests reach the planner straight off the
	// network, and the bounds must hold before any shape is resolved or
	// allocated (see SolveRequest.Validate).
	if err := req.Validate(); err != nil {
		return nil, err
	}
	o := req.options()
	if req.ProblemDef != nil {
		// A wire-form definition compiles to the same table-backed
		// *lcl.Problem a programmatic caller would pass, then follows the
		// inline-problem path: oracle classification, synthesis when a
		// normal form exists, Θ(n) fallback otherwise.
		p, err := req.ProblemDef.Compile()
		if err != nil {
			return nil, err
		}
		req.Problem = p
	}
	if req.Problem != nil {
		t, err := req.torus(nil)
		if err != nil {
			return nil, err
		}
		if req.Problem.Dims() != t.Dim() {
			return nil, fmt.Errorf("lclgrid: %d-dimensional problem %s on a %d-dimensional torus", req.Problem.Dims(), req.Problem.Name(), t.Dim())
		}
		ids, err := req.ids(t)
		if err != nil {
			return nil, err
		}
		return pl.planProblem(req.Problem, t, ids, o)
	}
	spec, err := e.reg.Lookup(req.Key)
	if err != nil {
		return nil, err
	}
	t, err := req.torus(spec)
	if err != nil {
		return nil, err
	}
	if spec.Dims != 0 && spec.Dims != t.Dim() {
		return nil, fmt.Errorf("lclgrid: %s is registered for %d-dimensional grids, torus is %d-dimensional", spec.Key, spec.Dims, t.Dim())
	}
	ids, err := req.ids(t)
	if err != nil {
		return nil, err
	}
	return pl.planSpec(spec, t, ids, o)
}

// planSpec builds the plan for a registered key from the spec's plan
// hint.
func (pl *Planner) planSpec(spec *ProblemSpec, t *Torus, ids *idSource, o Options) (*Plan, error) {
	plan := &Plan{Key: spec.Key, Problem: spec.Name, Class: spec.Class, Sides: t.Sides(), torus: t, ids: ids, opts: o}
	if o.Power > 0 {
		if spec.Problem == nil {
			return nil, fmt.Errorf("lclgrid: %s has no SFT form to synthesize against", spec.Name)
		}
		pl.addForcedStage(plan, spec.Problem())
		return plan, nil
	}
	switch {
	case spec.Constant:
		plan.Strategies = append(plan.Strategies, constantStage(spec.Problem(), t, o))
	case len(spec.Attempts) > 0:
		pl.addSynthesisStages(plan, spec.Problem(), spec.Attempts, "", spec.Problem != nil)
	case spec.Direct != nil:
		solver := spec.Direct(pl.e)
		plan.Strategies = append(plan.Strategies, PlannedStrategy{
			Kind:   StrategyDirect,
			Solver: solver.Name(),
			Reason: "registered direct algorithm",
			run: func(ctx context.Context) (*Result, error) {
				return solver.Solve(ctx, t, solverIDs(solver, ids), withOptions(o))
			},
		})
	case spec.Baseline:
		plan.Strategies = append(plan.Strategies, baselineStage(spec.Problem(), t, o,
			func() Class { return spec.Class }, false,
			"Θ(n) gather-and-solve is the registered strategy"))
	case spec.Oracle:
		// Oracle specs (user-defined problems) plan exactly like inline
		// problems — the cached one-sided oracle classifies at execution
		// time, synthesis serves Θ(log* n) outcomes and the Θ(n) baseline
		// everything else — with the registry key stamped onto the plan.
		inline, err := pl.planProblem(spec.Problem(), t, ids, o)
		if err != nil {
			return nil, err
		}
		inline.Key = spec.Key
		if inline.Class == ClassUnknown {
			inline.Class = spec.Class
		}
		return inline, nil
	default:
		return nil, fmt.Errorf("lclgrid: spec %q carries no plan hint", spec.Key)
	}
	return plan, nil
}

// planProblem builds the plan for an inline (possibly unregistered) SFT
// problem: constant fill when a constant solution exists, otherwise the
// one-sided oracle drives a synthesis stage with the Θ(n) brute force as
// the fallback — including when a synthesized normal form exists but
// needs a larger torus than the request asked for (the same semantics as
// the registered-key path).
func (pl *Planner) planProblem(p *Problem, t *Torus, ids *idSource, o Options) (*Plan, error) {
	plan := &Plan{Problem: p.Name(), Class: ClassUnknown, Sides: t.Sides(), torus: t, ids: ids, opts: o}
	if o.Power > 0 {
		pl.addForcedStage(plan, p)
		return plan, nil
	}
	if len(p.ConstantSolutions()) > 0 {
		plan.Class = ClassO1
		plan.Strategies = append(plan.Strategies, constantStage(p, t, o))
		return plan, nil
	}

	// The oracle proving Θ(log* n) but the normal form not fitting the
	// torus must reach the baseline as a Θ(log* n) problem; the oracle
	// finding nothing reaches it as conjectured-global. The stages share
	// this cell to communicate which happened.
	knownClass := ClassUnknown
	st := PlannedStrategy{
		Kind:   StrategySynthesis,
		Solver: (&SynthesisSolver{}).Name(),
		Reason: fmt.Sprintf("§7 one-sided oracle: try window candidates for k = 1..%d in order until a lookup table exists", o.MaxPower),
	}
	if p.Dims() != 2 {
		st.Skip = fmt.Sprintf("normal-form synthesis is implemented for 2-dimensional problems only; %s is %d-dimensional", p.Name(), p.Dims())
		st.skipErr = fmt.Errorf("lclgrid: %s: %w", p.Name(), errNoNormalForm)
	} else {
		schedule := oracleAttempts(o.MaxPower)
		for _, a := range schedule {
			st.Attempts = append(st.Attempts, pl.annotateAttempt(p, t, a))
		}
		s := &SynthesisSolver{Problem: p, Engine: pl.e}
		st.run = func(ctx context.Context) (*Result, error) {
			// The whole schedule is walked regardless of fit: the first
			// shape that synthesizes is the verdict, and only then does
			// the torus decide whether it can run it.
			alg, winner, cached, err := synthesizeFirst(ctx, schedule, s.synthesize)
			switch {
			case errors.Is(err, ErrUnsatisfiable):
				return nil, fmt.Errorf("lclgrid: %s: %w", p.Name(), errNoNormalForm)
			case err != nil:
				return nil, err
			}
			knownClass = ClassLogStar
			if !attemptFits(t, winner) {
				return nil, fmt.Errorf("lclgrid: no normal-form table for %s at the tried shapes: %w", p.Name(), core.TorusTooSmallError(winner.K, winner.H, winner.W))
			}
			return s.serve(t, ids.get(), alg, winner, cached, &o)
		}
	}
	plan.Strategies = append(plan.Strategies, st)
	plan.Strategies = append(plan.Strategies, baselineStage(p, t, o,
		func() Class { return knownClass }, true,
		"Θ(n) gather-and-solve serves the problem when no normal form applies"))
	return plan, nil
}

// addForcedStage plans a request that forces a power. It demands that
// normal form specifically, so no baseline fallback follows it.
func (pl *Planner) addForcedStage(plan *Plan, p *Problem) {
	o := plan.opts
	pl.addSynthesisStages(plan, p, []SynthAttempt{forcedAttempt(o.Power, o.H, o.W)},
		fmt.Sprintf("synthesis forced by the request (power %d)", o.Power), false)
}

// annotateAttempt builds the PlanAttempt annotation for one shape.
func (pl *Planner) annotateAttempt(p *Problem, t *Torus, a SynthAttempt) PlanAttempt {
	return PlanAttempt{
		K: a.K, H: a.H, W: a.W,
		MinSide: core.MinTorusSideFor(a.K, a.H, a.W),
		Fits:    attemptFits(t, a),
		Cached:  pl.e.cache.Contains(SynthKey{Fingerprint: p.Fingerprint(), K: a.K, H: a.H, W: a.W}),
	}
}

// addSynthesisStages appends the cached-outcome probe stage (when the
// cache already holds a completed outcome for the leading fitting
// shapes), the synthesis stage over the remaining shapes, and — when
// withFallback — the gated Θ(n) baseline. A cached fitting shape joins
// the cached stage only while no uncached fitting shape precedes it, so
// the two stages together still try the fitting shapes in schedule
// order: a table cached for a later shape (say, by a forced-power
// request) never overtakes an earlier shape that has not been tried.
// A cached table serves the request instantly, a cached UNSAT fails the
// stage without SAT work, and either way the synthesis stage never
// replays a shape the cached stage already resolved.
func (pl *Planner) addSynthesisStages(plan *Plan, p *Problem, attempts []SynthAttempt, reason string, withFallback bool) {
	e := pl.e
	t, ids, o := plan.torus, plan.ids, plan.opts
	var cachedFit, uncached []SynthAttempt
	var cachedAnnotated, uncachedAnnotated []PlanAttempt
	leading := true
	for _, a := range attempts {
		ann := pl.annotateAttempt(p, t, a)
		if ann.Fits && !ann.Cached {
			leading = false
		}
		if leading && ann.Cached && ann.Fits {
			cachedFit = append(cachedFit, a)
			cachedAnnotated = append(cachedAnnotated, ann)
		} else {
			// Non-fitting shapes stay with the synthesis stage (cached or
			// not) so its too-small accounting arms the fallback.
			uncached = append(uncached, a)
			uncachedAnnotated = append(uncachedAnnotated, ann)
		}
	}
	if len(cachedFit) > 0 {
		plan.Strategies = append(plan.Strategies, PlannedStrategy{
			Kind:     StrategyCached,
			Solver:   (&SynthesisSolver{}).Name(),
			Attempts: cachedAnnotated,
			Reason:   "completed outcomes for these shapes are already in the synthesis cache — replayed with no SAT work (a cached table serves the request, a cached UNSAT falls through)",
			run: func(ctx context.Context) (*Result, error) {
				s := &SynthesisSolver{Problem: p, Attempts: cachedFit, Engine: e}
				return s.Solve(ctx, t, ids.get(), withOptions(o))
			},
		})
	}
	if len(uncached) > 0 {
		st := PlannedStrategy{
			Kind:     StrategySynthesis,
			Solver:   (&SynthesisSolver{}).Name(),
			Attempts: uncachedAnnotated,
			Reason:   reason,
		}
		if st.Reason == "" {
			if len(uncached) > 1 {
				st.Reason = "registered normal-form shapes; tried in order and the first table wins"
			} else {
				st.Reason = "registered normal-form shape"
			}
		}
		anyFits := false
		for _, a := range uncachedAnnotated {
			if a.Fits {
				anyFits = true
				break
			}
		}
		if !anyFits {
			smallest, small := uncachedAnnotated[0].MinSide, uncachedAnnotated[0]
			for _, a := range uncachedAnnotated[1:] {
				if a.MinSide < smallest {
					smallest, small = a.MinSide, a
				}
			}
			st.Skip = fmt.Sprintf("torus %v is below the smallest side %d any attempt shape supports", t.Sides(), smallest)
			st.skipErr = core.TorusTooSmallError(small.K, small.H, small.W)
		} else {
			st.run = func(ctx context.Context) (*Result, error) {
				s := &SynthesisSolver{Problem: p, Attempts: uncached, Engine: e}
				return s.Solve(ctx, t, ids.get(), withOptions(o))
			}
		}
		plan.Strategies = append(plan.Strategies, st)
	}
	if withFallback {
		cls := plan.Class
		plan.Strategies = append(plan.Strategies, baselineStage(p, t, o, func() Class { return cls }, true,
			"Θ(n) gather-and-solve serves the problem when the normal form needs a larger torus"))
	}
}

// solverIDs returns the identifiers to hand a direct solver: none for
// one that never reads them (see idFree), so the plan does not build
// them.
func solverIDs(s Solver, ids *idSource) []int {
	if _, ok := s.(idFree); ok {
		return nil
	}
	return ids.get()
}

// idFree marks solvers whose output does not depend on the identifier
// assignment.
type idFree interface{ idFree() }

// constantStage builds the O(1) constant-fill stage; constant fill reads
// no identifiers.
func constantStage(p *Problem, t *Torus, o Options) PlannedStrategy {
	return PlannedStrategy{
		Kind:   StrategyConstant,
		Solver: (&ConstantSolver{}).Name(),
		Reason: "O(1): a constant label tiles the grid (§6)",
		run: func(ctx context.Context) (*Result, error) {
			return (&ConstantSolver{Problem: p}).Solve(ctx, t, nil, withOptions(o))
		},
	}
}

// baselineStage builds the Θ(n) brute-force stage. classOf is read at
// execution time so an earlier stage (the inline oracle) can refine the
// class the baseline records; fallback gates the stage on a
// too-small-torus (or no-normal-form) failure of the stage before it.
// The brute force gathers the whole torus and reads no identifiers.
func baselineStage(p *Problem, t *Torus, o Options, classOf func() Class, fallback bool, reason string) PlannedStrategy {
	return PlannedStrategy{
		Kind:     StrategyBaseline,
		Solver:   (&GlobalSolver{}).Name(),
		Reason:   reason,
		Fallback: fallback,
		run: func(ctx context.Context) (*Result, error) {
			return (&GlobalSolver{Problem: p, KnownClass: classOf()}).Solve(ctx, t, nil, withOptions(o))
		},
	}
}

// executePlan walks the plan's ranked strategies under ctx: skipped
// stages are recorded and passed over, the fallback baseline runs only
// when the preceding failure arms it, an ErrNotATile failure ends the
// walk at once, and the first success returns a
// Result (on a copy — solvers own the Results they return) carrying the
// full Trace and, when the solver left the class open, the plan's
// registered classification. Per-stage outcomes are mirrored to the
// observers as EventStrategyStart/EventStrategyEnd pairs.
func (e *Engine) executePlan(ctx context.Context, req SolveRequest, plan *Plan) (*Result, error) {
	var trace []TraceStep
	var lastRes *Result
	var lastErr error
	for i := range plan.Strategies {
		st := &plan.Strategies[i]
		if st.Skip != "" {
			trace = append(trace, TraceStep{Strategy: st.Kind, Outcome: TraceSkipped, Detail: st.Skip})
			if st.skipErr != nil {
				lastErr = st.skipErr
			}
			continue
		}
		if st.Fallback {
			if lastErr != nil && !fallbackTriggers(lastErr) {
				// The earlier failure is the request's real answer (UNSAT
				// everywhere, a rejected labelling, ...): do not mask it
				// with an open-ended brute force.
				trace = append(trace, TraceStep{Strategy: st.Kind, Outcome: TraceSkipped,
					Detail: "not reached: the preceding failure is not a too-small-torus redirect"})
				break
			}
			if lastErr != nil && errors.Is(lastErr, ErrTorusTooSmall) {
				e.emit(ctx, Event{Kind: EventFallback, Request: req, Err: lastErr})
			}
		}
		e.emit(ctx, Event{Kind: EventStrategyStart, Request: req, Strategy: st})
		sctx, sp := StartSpan(ctx, "strategy")
		sp.SetAttr("kind", string(st.Kind))
		start := time.Now()
		res, err := st.run(sctx)
		elapsed := time.Since(start)
		sp.SetError(err)
		sp.End()
		e.emit(ctx, Event{Kind: EventStrategyEnd, Request: req, Strategy: st, Result: res, Err: err})
		if err == nil {
			detail := ""
			if res != nil {
				detail = res.Note
			}
			trace = append(trace, TraceStep{Strategy: st.Kind, Outcome: TraceOK, Detail: detail, Elapsed: elapsed})
			// Copy before stamping: the solver may legitimately share or
			// reuse the Result it returned.
			out := *res
			if out.Class == ClassUnknown && plan.Class != ClassUnknown {
				out.Class = plan.Class
			}
			out.Trace = trace
			return &out, nil
		}
		if isCtxErr(err) {
			return nil, err
		}
		trace = append(trace, TraceStep{Strategy: st.Kind, Outcome: TraceFailed, Detail: err.Error(), Elapsed: elapsed})
		lastRes, lastErr = res, err
		if errors.Is(err, ErrNotATile) {
			// A window that is no tile is a fault in S_k, A′ or the table,
			// not a property of the request: no later stage can be trusted
			// to mend it, and a synthesis stage could hold the request
			// for its whole deadline.
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("lclgrid: no strategy applies to %s on torus %v", plan.Problem, plan.Sides)
	}
	if lastRes != nil {
		out := *lastRes
		out.Trace = trace
		lastRes = &out
	}
	return lastRes, lastErr
}
