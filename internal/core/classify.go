package core

import (
	"context"
	"errors"
	"fmt"

	"lclgrid/internal/lcl"
)

// Class is a complexity class of LCL problems on toroidal grids. The
// paper's classification theorem shows these three classes are exhaustive
// for deterministic algorithms; deciding between LogStar and Global is
// undecidable in general (§6), so the oracle below is one-sided.
type Class int

const (
	// ClassUnknown means bounded synthesis failed: the problem is
	// conjectured global, but no proof is produced (§7's one-sided
	// oracle semantics).
	ClassUnknown Class = iota
	// ClassO1 marks trivial problems: a constant label tiles the grid.
	ClassO1
	// ClassLogStar marks problems with a synthesized normal-form
	// algorithm, hence complexity Θ(log* n).
	ClassLogStar
	// ClassGlobal marks problems proven global by external arguments
	// (e.g. the §9/§11 lower bounds or unsolvability for infinitely
	// many n); the oracle itself never returns it.
	ClassGlobal
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassO1:
		return "O(1)"
	case ClassLogStar:
		return "Θ(log* n)"
	case ClassGlobal:
		return "Θ(n)"
	default:
		return "unknown (conjectured Θ(n))"
	}
}

// classTokens are the stable ASCII wire names of the classes, used by the
// JSON request/response encoding (MarshalText/UnmarshalText).
var classTokens = map[Class]string{
	ClassUnknown: "unknown",
	ClassO1:      "O(1)",
	ClassLogStar: "logstar",
	ClassGlobal:  "global",
}

// MarshalText encodes the class as its stable wire token ("unknown",
// "O(1)", "logstar", "global"), making Class round-trippable through
// encoding/json.
func (c Class) MarshalText() ([]byte, error) {
	tok, ok := classTokens[c]
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal invalid class %d", int(c))
	}
	return []byte(tok), nil
}

// UnmarshalText decodes a wire token produced by MarshalText.
func (c *Class) UnmarshalText(b []byte) error {
	for cls, tok := range classTokens {
		if tok == string(b) {
			*c = cls
			return nil
		}
	}
	return fmt.Errorf("core: unknown class token %q", b)
}

// Attempt records one synthesis attempt made by the oracle.
type Attempt struct {
	K, H, W  int
	NumTiles int
	Success  bool
	// Aborted marks the attempt a cancelled context cut short: its
	// search stopped without an answer, so it proves nothing about its
	// shape.
	Aborted bool
}

// OracleResult is the outcome of ClassifyOracle.
type OracleResult struct {
	Class    Class
	Alg      *Synthesized // non-nil iff Class == ClassLogStar
	Attempts []Attempt
	// Err is non-nil when the oracle was aborted by its context before the
	// shape schedule completed; Class is then ClassUnknown and must not be
	// interpreted as a classification.
	Err error
}

// SynthesizeFunc is the synthesis dependency of the oracle; callers with
// a cache (lclgrid.Engine) substitute their memoised variant.
type SynthesizeFunc func(ctx context.Context, p *lcl.Problem, k, h, w int) (*Synthesized, error)

// ClassifyOracle implements the §7 synthesis-as-oracle procedure: trivial
// problems are detected exactly (constant solutions are decidable on
// toroidal grids); otherwise normal-form synthesis is attempted for
// k = 1..maxK with the default and square window shapes. If synthesis
// succeeds the problem is Θ(log* n) and an optimal algorithm is returned;
// if all attempts fail the result is ClassUnknown — the caller may
// conjecture the problem global, but (Thm 3) no terminating procedure can
// confirm this in general. Cancelling ctx aborts the schedule; the
// context's error is recorded in OracleResult.Err.
func ClassifyOracle(ctx context.Context, p *lcl.Problem, maxK int) OracleResult {
	return ClassifyOracleWith(ctx, Synthesize, p, maxK)
}

// ClassifyOracleWith is ClassifyOracle with the synthesis step supplied
// by the caller. It walks OracleSchedule(maxK) strictly in order and
// stops at the first shape that admits a table, so the returned
// algorithm has the smallest k (and, within it, the first window) that
// synthesizes — the same answer at any parallelism.
func ClassifyOracleWith(ctx context.Context, synth SynthesizeFunc, p *lcl.Problem, maxK int) OracleResult {
	if len(p.ConstantSolutions()) > 0 {
		return OracleResult{Class: ClassO1}
	}
	res := OracleResult{Class: ClassUnknown}
	if p.Dims() != 2 {
		// Normal-form synthesis is implemented for 2-dimensional problems
		// only; for other dimensions the oracle simply has no attempts to
		// make and the classification stays open (callers fall back to
		// the Θ(n) baseline).
		return res
	}
	for _, shape := range OracleSchedule(maxK) {
		alg, err := synth(ctx, p, shape[0], shape[1], shape[2])
		att := Attempt{K: shape[0], H: shape[1], W: shape[2], Success: err == nil, Aborted: IsContextError(err)}
		if alg != nil {
			att.NumTiles = alg.Graph.NumTiles()
		}
		res.Attempts = append(res.Attempts, att)
		switch {
		case err == nil:
			res.Class = ClassLogStar
			res.Alg = alg
			return res
		case att.Aborted:
			res.Err = err
			return res
		case !errors.Is(err, ErrUnsatisfiable):
			// Construction errors are bugs, not UNSAT results.
			panic(fmt.Sprintf("core: synthesis failed structurally: %v", err))
		}
	}
	return res
}

// OracleSchedule returns the (k, h, w) shapes the oracle tries through
// maxK, in schedule order — the planner uses it to explain what a
// classification would synthesize without running anything.
func OracleSchedule(maxK int) [][3]int {
	var out [][3]int
	for k := 1; k <= maxK; k++ {
		for _, win := range windowsForK(k) {
			out = append(out, [3]int{k, win[0], win[1]})
		}
	}
	return out
}

// windowsForK returns the window shapes the oracle tries for a given
// power: the paper's default shape and the square shape.
func windowsForK(k int) [][2]int {
	h, w := DefaultWindow(k)
	if h == 2*k+1 && w == 2*k+1 {
		return [][2]int{{h, w}}
	}
	return [][2]int{{h, w}, {2*k + 1, 2*k + 1}}
}
