package lclgrid

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"lclgrid/internal/core"
)

// Coordinate-addressed label serving: the windowed-labeling request
// layer over internal/core's WindowEvaluator. A warm cache turns a
// LabelWindow call into pure table lookups — zero SAT work, O(window +
// halo) memory — which is what lets the service answer queries over tori
// far beyond the 1M-node cap of the materializing solve path.

// Label-request wire guards. Windowed labeling never materialises the
// torus, so the shape bound is per side rather than per node count: up
// to 10^6 per side, 10^12 nodes. Only the response window itself is
// allocated, so it keeps the familiar 1M-element cap.
const (
	// maxLabelSide bounds each torus side of a label/export request.
	maxLabelSide = 1_000_000
	// maxLabelWindowNodes bounds the w*h response window (the only
	// allocation proportional to the request).
	maxLabelWindowNodes = 1 << 20
)

// Label modes.
const (
	// LabelModeExact replays the identifier-driven Linial/MIS anchor
	// construction pointwise: output is byte-identical to full-grid
	// Run under the AffineIDs assignment. The default.
	LabelModeExact = "exact"
	// LabelModeLattice uses the periodic perfect-code anchor lattice: a
	// valid (but different) labeling, O(1) per node with zero halo,
	// available when both torus sides are multiples of LatticeModulus(k).
	LabelModeLattice = "lattice"
)

// LabelRequest asks for the labels of one w×h rectangle of a torus
// under a registered problem's synthesized normal form: "what does the
// optimal algorithm output at these coordinates?". It is JSON
// round-trippable and served by POST /v1/labels and `lclgrid labels`,
// e.g.:
//
//	{"key":"mis","sides":[100000,100000],"x":12345,"y":99999,"w":4,"h":3}
//
// Identifiers come from the deterministic coordinate-addressable
// assignment AffineIDs(n, Seed) — not PermutedIDs, whose shuffle is
// inherently global — so the same request always yields the same
// labels. X and Y may be any integers (they wrap around the torus).
type LabelRequest struct {
	// Key selects a registered problem; windowed labeling serves
	// table-backed problems (specs with a synthesis hint or an oracle
	// hint). Exactly one of Key and ProblemDef must be set.
	Key string `json:"key"`
	// ProblemDef supplies an inline problem in the wire-form table DSL;
	// it must be 2-dimensional, and the window is served from whichever
	// oracle-schedule normal form synthesizes first (a conjectured-global
	// problem has no windowed labeling — there is no Θ(n) fallback here).
	ProblemDef *ProblemDef `json:"problem_def,omitempty"`

	// Sides is the 2-dimensional torus shape; N is shorthand for the n×n
	// square. Sides up to 10^6 each (10^12 nodes).
	Sides []int `json:"sides,omitempty"`
	N     int   `json:"n,omitempty"`

	// Seed selects the identifier assignment AffineIDs(n, Seed); 0 is
	// the sequential assignment.
	Seed int64 `json:"seed,omitempty"`

	// The rectangle: south-west origin (X, Y), W columns east, H rows
	// north. The result is row-major, labels[r*w+c] labeling node
	// ((X+c) mod NX, (Y+r) mod NY).
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`

	// Mode is "exact" (default) or "lattice"; see the Label modes.
	Mode string `json:"mode,omitempty"`

	// Power forces synthesis at this anchor power instead of the spec's
	// hinted attempts; WindowH and WindowW override the anchor window
	// shape (each 0 selects that side of DefaultWindow(Power)).
	Power   int `json:"power,omitempty"`
	WindowH int `json:"window_h,omitempty"`
	WindowW int `json:"window_w,omitempty"`
}

// Validate checks the wire-settable fields against the label-request
// bounds: a registry key, a 2-dimensional shape of bounded sides, a
// positive bounded window, a known mode, and bounded synthesis knobs.
// Front ends call it right after decoding; the engine validates again
// before planning.
func (r *LabelRequest) Validate() error {
	switch {
	case r.Key != "" && r.ProblemDef != nil:
		return fmt.Errorf("lclgrid: label request sets both key %q and an inline problem_def; choose one", r.Key)
	case r.Key == "" && r.ProblemDef == nil:
		return errors.New("lclgrid: label request needs a problem key or a problem_def (windowed labeling serves table-backed problems)")
	}
	if r.ProblemDef != nil {
		if err := r.ProblemDef.Validate(); err != nil {
			return err
		}
		if r.ProblemDef.Dims != 2 {
			return fmt.Errorf("lclgrid: windowed labeling is 2-dimensional, problem_def has %d dimensions", r.ProblemDef.Dims)
		}
	}
	if r.N < 0 {
		return fmt.Errorf("lclgrid: torus side must be positive, got %d", r.N)
	}
	if r.N > maxLabelSide {
		return fmt.Errorf("lclgrid: torus side %d exceeds the label-request bound %d", r.N, maxLabelSide)
	}
	if len(r.Sides) != 0 && len(r.Sides) != 2 {
		return fmt.Errorf("lclgrid: windowed labeling is 2-dimensional, got %d sides", len(r.Sides))
	}
	for i, side := range r.Sides {
		if side < 1 {
			return fmt.Errorf("lclgrid: torus dimension %d has side %d < 1", i, side)
		}
		if side > maxLabelSide {
			return fmt.Errorf("lclgrid: torus side %d exceeds the label-request bound %d", side, maxLabelSide)
		}
	}
	if r.W < 1 || r.H < 1 {
		return fmt.Errorf("lclgrid: label window must be positive, got %dx%d", r.W, r.H)
	}
	if r.W > maxLabelWindowNodes || r.H > maxLabelWindowNodes/r.W {
		return fmt.Errorf("lclgrid: label window %dx%d exceeds the request bound (%d nodes)", r.W, r.H, maxLabelWindowNodes)
	}
	switch r.Mode {
	case "", LabelModeExact, LabelModeLattice:
	default:
		return fmt.Errorf("lclgrid: unknown label mode %q (use %q or %q)", r.Mode, LabelModeExact, LabelModeLattice)
	}
	for name, v := range map[string]int{
		"power": r.Power, "window_h": r.WindowH, "window_w": r.WindowW,
	} {
		if v < 0 {
			return fmt.Errorf("lclgrid: request field %q must be positive when set, got %d", name, v)
		}
	}
	if r.Power > maxRequestPower {
		return fmt.Errorf("lclgrid: anchor power %d exceeds the request bound %d", r.Power, maxRequestPower)
	}
	if r.WindowH > maxRequestWindow || r.WindowW > maxRequestWindow {
		return fmt.Errorf("lclgrid: anchor window %dx%d exceeds the request bound %d", r.WindowH, r.WindowW, maxRequestWindow)
	}
	return nil
}

// WindowStats is the work account of a windowed evaluation.
type WindowStats = core.WindowStats

// AffineIDs materialises the deterministic identifier assignment
// windowed labeling uses — for comparing against full-grid Run on small
// tori. Seed 0 is SequentialIDs; other seeds select an affine
// permutation computable in O(1) per node (unlike PermutedIDs).
func AffineIDs(n int, seed int64) []int { return core.AffineIDs(n, seed) }

// LatticeModulus returns the torus-side modulus LabelModeLattice
// requires for anchor power k (5 for k=1, 25 for k=3).
func LatticeModulus(k int) int { return core.LatticeModulus(k) }

// LabelResponse carries the labels of one rectangle. Every field is a
// deterministic function of the request and the catalogue — there is no
// timing in the document — which is what makes label responses
// HTTP-cacheable under a strong ETag.
type LabelResponse struct {
	// Key and Problem echo the spec served.
	Key     string `json:"key"`
	Problem string `json:"problem"`
	// Sides is the resolved torus shape; X, Y are the rectangle origin
	// normalised into it.
	Sides []int  `json:"sides"`
	Seed  int64  `json:"seed,omitempty"`
	X     int    `json:"x"`
	Y     int    `json:"y"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Mode  string `json:"mode"`
	// Attempt is the normal form that served the window.
	Attempt SynthAttempt `json:"attempt"`
	// Labels is row-major: Labels[r*W+c] labels node ((X+c) mod NX,
	// (Y+r) mod NY).
	Labels []int `json:"labels"`
	// Rounds is the synchronous round count of the simulated distributed
	// algorithm on this torus (identical to a full-grid Run's account).
	Rounds   int         `json:"rounds"`
	CacheHit bool        `json:"cache_hit"`
	Stats    WindowStats `json:"stats"`
}

// labelPlan is the resolved form of a LabelRequest: spec, torus and the
// fitting synthesis attempts, in deterministic order. Building it does
// zero SAT work.
type labelPlan struct {
	spec     *ProblemSpec
	t        *Torus
	attempts []SynthAttempt
	mode     string
}

// planLabel validates and resolves a label request. Every failure is a
// *RequestError: these are the client's to fix (bad key, non-table
// problem, shape too small for every normal form), never server faults.
func (e *Engine) planLabel(req LabelRequest) (*labelPlan, error) {
	fail := func(err error) (*labelPlan, error) {
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			return nil, err
		}
		return nil, &RequestError{Err: err}
	}
	if err := req.Validate(); err != nil {
		return fail(err)
	}
	var (
		spec *ProblemSpec
		err  error
	)
	if req.ProblemDef != nil {
		// Inline definitions get the same transient oracle spec a
		// registered user problem carries; the Key stays empty and the
		// identity for caching is the compiled problem's fingerprint.
		p, cerr := req.ProblemDef.Compile()
		if cerr != nil {
			return fail(cerr)
		}
		spec = &ProblemSpec{
			Name: p.Name(), Dims: p.Dims(), NumLabels: p.K(),
			Class: ClassUnknown, MinSide: 12,
			Problem: func() *Problem { return p },
			Oracle:  true, Source: SourceUser,
		}
	} else {
		spec, err = e.reg.Lookup(req.Key)
		if err != nil {
			return fail(err)
		}
	}
	if spec.Problem == nil {
		return fail(fmt.Errorf("lclgrid: problem %q has no SFT form; windowed labeling needs a normal-form lookup table", req.Key))
	}
	if spec.Dims != 0 && spec.Dims != 2 {
		return fail(fmt.Errorf("lclgrid: windowed labeling is 2-dimensional, problem %q is %d-dimensional", spec.Name, spec.Dims))
	}
	attempts := spec.Attempts
	if len(attempts) == 0 && spec.Oracle {
		// Oracle specs carry no synthesis hint up front; windowed labeling
		// tries the paper's oracle schedule in order and serves the first
		// normal form that synthesizes.
		attempts = oracleAttempts(3)
	}
	if req.Power > 0 {
		attempts = []SynthAttempt{forcedAttempt(req.Power, req.WindowH, req.WindowW)}
	}
	if len(attempts) == 0 {
		return fail(fmt.Errorf("lclgrid: problem %q has no normal-form synthesis hint (%s); windowed labeling serves table-backed problems only (or force a shape with \"power\")", req.Key, spec.HintSummary()))
	}
	var t *Torus
	switch {
	case len(req.Sides) == 2:
		t, err = NewTorus(req.Sides...)
	case req.N > 0:
		t = Square(req.N)
	default:
		t = Square(spec.SmallestSide())
	}
	if err != nil {
		return fail(err)
	}
	fitting := attempts[:0:0]
	for _, a := range attempts {
		if attemptFits(t, a) {
			fitting = append(fitting, a)
		}
	}
	if len(fitting) == 0 {
		return fail(fmt.Errorf("lclgrid: torus %dx%d is below every normal form's minimum side for %q (%s); windowed labeling has no Θ(n) fallback", t.NX(), t.NY(), req.Key, spec.HintSummary()))
	}
	mode := req.Mode
	if mode == "" {
		mode = LabelModeExact
	}
	return &labelPlan{spec: spec, t: t, attempts: fitting, mode: mode}, nil
}

// LabelWindow labels one rectangle of a torus under a registered
// problem's synthesized normal form. Synthesis rides the engine's
// cache/singleflight path — attempts are tried in hint order, like every
// other shape sweep, so a warm cache answers with zero SAT work — and
// the window is then evaluated coordinate-wise in O(window + halo) time
// and memory, never allocating anything proportional to the torus. The response is a deterministic
// function of the request and the catalogue.
func (e *Engine) LabelWindow(ctx context.Context, req LabelRequest) (*LabelResponse, error) {
	e.emit(ctx, Event{Kind: EventWindowStart, Label: req})
	ctx, sp := StartSpan(ctx, "window")
	start := time.Now()
	res, err := e.labelWindow(ctx, req)
	var stats WindowStats
	if res != nil {
		stats = res.Stats
		sp.SetAttr("window_nodes", strconv.Itoa(stats.WindowNodes))
		sp.SetAttr("halo_nodes", strconv.Itoa(stats.HaloNodes))
	}
	sp.SetError(err)
	sp.End()
	e.emit(ctx, Event{Kind: EventWindowEnd, Label: req, Stats: stats, Elapsed: time.Since(start), Err: err})
	return res, err
}

func (e *Engine) labelWindow(ctx context.Context, req LabelRequest) (*LabelResponse, error) {
	lp, err := e.planLabel(req)
	if err != nil {
		return nil, err
	}
	s := &SynthesisSolver{Problem: lp.spec.Problem(), Engine: e}
	alg, winner, cached, err := synthesizeFirst(ctx, lp.attempts, s.synthesize)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewWindowEvaluator(alg, lp.t, req.Seed, lp.mode == LabelModeLattice)
	if err != nil {
		// Shape constraints (lattice divisibility) are the client's choice.
		return nil, &RequestError{Err: err}
	}
	labels, err := ev.LabelRect(ctx, req.X, req.Y, req.W, req.H)
	if err != nil {
		return nil, err
	}
	nx, ny := lp.t.NX(), lp.t.NY()
	return &LabelResponse{
		Key:      req.Key,
		Problem:  lp.spec.Name,
		Sides:    []int{nx, ny},
		Seed:     req.Seed,
		X:        ((req.X % nx) + nx) % nx,
		Y:        ((req.Y % ny) + ny) % ny,
		W:        req.W,
		H:        req.H,
		Mode:     lp.mode,
		Attempt:  winner,
		Labels:   labels,
		Rounds:   ev.Rounds(),
		CacheHit: cached,
		Stats:    ev.Stats(),
	}, nil
}

// --- streaming whole-grid export -------------------------------------------

// ExportRequest asks for a whole grid streamed in row bands: the same
// problem/shape/seed/mode fields as LabelRequest, plus band sizing and
// format knobs consumed by the HTTP layer.
type ExportRequest struct {
	Key     string `json:"key"`
	Sides   []int  `json:"sides,omitempty"`
	N       int    `json:"n,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Power   int    `json:"power,omitempty"`
	WindowH int    `json:"window_h,omitempty"`
	WindowW int    `json:"window_w,omitempty"`

	// BandRows is the number of grid rows per emitted band; 0 picks the
	// largest band that keeps band×NX within the window bound.
	BandRows int `json:"band_rows,omitempty"`
	// Format selects the wire encoding of the HTTP export: "jsonl"
	// (default) or "int32" (raw little-endian labels, row-major).
	Format string `json:"format,omitempty"`
}

// Export formats.
const (
	ExportFormatJSONL = "jsonl"
	ExportFormatInt32 = "int32"
)

// labelRequest derives the LabelRequest used to plan the export; the
// per-band rectangle shape is substituted during streaming.
func (r *ExportRequest) labelRequest() LabelRequest {
	return LabelRequest{
		Key: r.Key, Sides: r.Sides, N: r.N, Seed: r.Seed, Mode: r.Mode,
		Power: r.Power, WindowH: r.WindowH, WindowW: r.WindowW,
		W: 1, H: 1,
	}
}

// Validate checks the wire-settable export fields.
func (r *ExportRequest) Validate() error {
	lr := r.labelRequest()
	if err := lr.Validate(); err != nil {
		return err
	}
	if r.BandRows < 0 {
		return fmt.Errorf("lclgrid: request field %q must be positive when set, got %d", "band_rows", r.BandRows)
	}
	if r.BandRows > maxLabelWindowNodes {
		return fmt.Errorf("lclgrid: band_rows %d exceeds the request bound %d", r.BandRows, maxLabelWindowNodes)
	}
	switch r.Format {
	case "", ExportFormatJSONL, ExportFormatInt32:
	default:
		return fmt.Errorf("lclgrid: unknown export format %q (use %q or %q)", r.Format, ExportFormatJSONL, ExportFormatInt32)
	}
	return nil
}

// LabelBand is one row band of an exported grid: Rows grid rows
// starting at row Y, row-major (Labels[r*NX+c] labels node (c, Y+r)).
type LabelBand struct {
	Y      int   `json:"y"`
	Rows   int   `json:"rows"`
	Labels []int `json:"labels"`
}

// bandRows resolves the export's band height for a torus of width nx:
// the largest band keeping band×nx within the window bound, clamped to
// the explicit BandRows when set.
func (r *ExportRequest) bandRows(nx, ny int) int {
	band := maxLabelWindowNodes / nx
	if band < 1 {
		band = 1
	}
	if r.BandRows > 0 && r.BandRows < band {
		band = r.BandRows
	}
	if band > ny {
		band = ny
	}
	return band
}

// ExportGrid evaluates the whole grid band by band, invoking emit for
// each: bounded memory regardless of grid size (the evaluator's memo
// state is reset between bands), stopping with the context's error when
// cancelled mid-stream. Observers see the export as a single window
// request with cumulative stats.
func (e *Engine) ExportGrid(ctx context.Context, req ExportRequest, emit func(LabelBand) error) error {
	lreq := req.labelRequest()
	e.emit(ctx, Event{Kind: EventWindowStart, Label: lreq})
	ctx, sp := StartSpan(ctx, "export")
	start := time.Now()
	stats, err := e.exportGrid(ctx, req, emit)
	sp.SetAttr("window_nodes", strconv.Itoa(stats.WindowNodes))
	sp.SetError(err)
	sp.End()
	e.emit(ctx, Event{Kind: EventWindowEnd, Label: lreq, Stats: stats, Elapsed: time.Since(start), Err: err})
	return err
}

func (e *Engine) exportGrid(ctx context.Context, req ExportRequest, emit func(LabelBand) error) (WindowStats, error) {
	lp, err := e.planLabel(req.labelRequest())
	if err != nil {
		return WindowStats{}, err
	}
	s := &SynthesisSolver{Problem: lp.spec.Problem(), Engine: e}
	alg, _, _, err := synthesizeFirst(ctx, lp.attempts, s.synthesize)
	if err != nil {
		return WindowStats{}, err
	}
	ev, err := core.NewWindowEvaluator(alg, lp.t, req.Seed, lp.mode == LabelModeLattice)
	if err != nil {
		return WindowStats{}, &RequestError{Err: err}
	}
	nx, ny := lp.t.NX(), lp.t.NY()
	band := req.bandRows(nx, ny)
	for y := 0; y < ny; y += band {
		rows := band
		if y+rows > ny {
			rows = ny - y
		}
		labels, err := ev.LabelRect(ctx, 0, y, nx, rows)
		if err != nil {
			return ev.Stats(), err
		}
		if err := emit(LabelBand{Y: y, Rows: rows, Labels: labels}); err != nil {
			return ev.Stats(), err
		}
		ev.Reset()
	}
	return ev.Stats(), nil
}
