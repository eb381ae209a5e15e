package lclgrid_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	lclgrid "lclgrid"
)

// tableBackedSpecs returns every registered spec windowed labeling can
// serve: the ones carrying normal-form synthesis hints.
func tableBackedSpecs(t *testing.T) []*lclgrid.ProblemSpec {
	t.Helper()
	var specs []*lclgrid.ProblemSpec
	for _, spec := range lclgrid.DefaultRegistry().Specs() {
		if len(spec.Attempts) > 0 {
			specs = append(specs, spec)
		}
	}
	if len(specs) < 4 {
		t.Fatalf("expected several table-backed specs, got %d", len(specs))
	}
	return specs
}

// TestLabelWindowMatchesSolve is the subsystem's equivalence proof at
// the API level: for every table-backed catalogue key, tiling a small
// torus with LabelWindow calls — including windows that wrap both seams
// — reproduces the full-grid Solve labels byte for byte under the same
// AffineIDs assignment.
func TestLabelWindowMatchesSolve(t *testing.T) {
	eng := lclgrid.NewEngine()
	for _, spec := range tableBackedSpecs(t) {
		spec := spec
		t.Run(spec.Key, func(t *testing.T) {
			side := spec.SmallestSide()
			g := lclgrid.Square(side)
			n := g.N()
			for _, seed := range []int64{0, 7} {
				full, err := eng.Solve(bg, lclgrid.SolveRequest{
					Key: spec.Key, Torus: g, IDs: lclgrid.AffineIDs(n, seed),
				})
				if err != nil {
					t.Fatalf("seed %d: Solve: %v", seed, err)
				}
				// Tile the torus from an origin outside [0, side) so every
				// window exercises coordinate wrap-around somewhere.
				const tw, th = 7, 5
				checked := 0
				for y0 := -3; y0 < side-3; y0 += th {
					for x0 := -2; x0 < side-2; x0 += tw {
						w, h := tw, th
						if x0+w > side-2 {
							w = side - 2 - x0
						}
						if y0+h > side-3 {
							h = side - 3 - y0
						}
						res, err := eng.LabelWindow(bg, lclgrid.LabelRequest{
							Key: spec.Key, N: side, Seed: seed,
							X: x0, Y: y0, W: w, H: h,
						})
						if err != nil {
							t.Fatalf("seed %d window (%d,%d): %v", seed, x0, y0, err)
						}
						for r := 0; r < h; r++ {
							for c := 0; c < w; c++ {
								x := ((x0+c)%side + side) % side
								y := ((y0+r)%side + side) % side
								if got, want := res.Labels[r*w+c], full.Labels[y*side+x]; got != want {
									t.Fatalf("seed %d node (%d,%d): window label %d, full-grid label %d", seed, x, y, got, want)
								}
								checked++
							}
						}
					}
				}
				if checked != n {
					t.Fatalf("seed %d: tiled %d nodes, torus has %d", seed, checked, n)
				}
			}
		})
	}
}

// TestLabelWindowWarmCacheZeroSyntheses pins the headline property: on a
// warm engine a LabelWindow call over a torus four orders of magnitude
// past the materializing path's node cap does zero SAT work.
func TestLabelWindowWarmCacheZeroSyntheses(t *testing.T) {
	eng := lclgrid.NewEngine()
	first, err := eng.LabelWindow(bg, lclgrid.LabelRequest{
		Key: "mis", N: 16, W: 4, H: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first call on a cold engine reported a cache hit")
	}
	misses := eng.CacheStats().Misses
	res, err := eng.LabelWindow(bg, lclgrid.LabelRequest{
		Key:   "mis",
		Sides: []int{100_000, 100_000}, // 10^10 nodes
		Seed:  7,
		X:     99_997, Y: -1, W: 6, H: 4, // wraps both seams
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("warm call did not report a cache hit")
	}
	if got := eng.CacheStats().Misses; got != misses {
		t.Errorf("warm call synthesized: misses %d -> %d", misses, got)
	}
	st := res.Stats
	if st.WindowNodes != 24 {
		t.Errorf("window nodes = %d, want 24", st.WindowNodes)
	}
	// O(window + halo): the anchor work must stay within a small constant
	// factor of the window, nowhere near the 10^10 grid nodes.
	if st.AnchorNodes > 10_000 {
		t.Errorf("anchor evaluations = %d on a 6x4 window; expected O(window+halo)", st.AnchorNodes)
	}
	if res.Rounds <= 0 {
		t.Errorf("rounds = %d, want positive", res.Rounds)
	}
}

// TestLabelWindowDeterministic pins the property the HTTP ETag and CI
// fixture rely on: identical requests produce identical responses, byte
// for byte, across engines.
func TestLabelWindowDeterministic(t *testing.T) {
	req := lclgrid.LabelRequest{
		Key: "mis", Sides: []int{100_000, 99_990}, Seed: 11,
		X: -5, Y: 99_988, W: 9, H: 3,
	}
	a, err := lclgrid.NewEngine().LabelWindow(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lclgrid.NewEngine().LabelWindow(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	b.CacheHit = a.CacheHit // the only field allowed to differ
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("responses differ:\n  %+v\n  %+v", a, b)
	}
}

// TestLabelWindowLattice checks the opt-in periodic-anchor fast path:
// the labeling differs from exact mode but still verifies against the
// problem definition, needs zero halo, and is rejected on shapes the
// lattice cannot tile consistently.
func TestLabelWindowLattice(t *testing.T) {
	eng := lclgrid.NewEngine()
	spec, err := lclgrid.DefaultRegistry().Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	mod := lclgrid.LatticeModulus(1)
	side := spec.SmallestSide()
	for side%mod != 0 {
		side++
	}
	g := lclgrid.Square(side)
	res, err := eng.LabelWindow(bg, lclgrid.LabelRequest{
		Key: "mis", N: side, Mode: lclgrid.LabelModeLattice,
		X: 0, Y: 0, W: side, H: side,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.CheckResult(g, &lclgrid.Result{Labels: res.Labels}); err != nil {
		t.Errorf("lattice labeling does not verify: %v", err)
	}
	if res.Stats.HaloNodes != 0 {
		t.Errorf("lattice mode reported %d halo nodes, want 0", res.Stats.HaloNodes)
	}

	// A side not divisible by the modulus cannot host the lattice.
	_, err = eng.LabelWindow(bg, lclgrid.LabelRequest{
		Key: "mis", N: side + 1, Mode: lclgrid.LabelModeLattice, W: 2, H: 2,
	})
	var reqErr *lclgrid.RequestError
	if !errors.As(err, &reqErr) {
		t.Errorf("lattice on an indivisible side: got %v, want a RequestError", err)
	}
}

// TestLabelWindowRequestErrors checks that every client-side planning
// failure surfaces as a RequestError (HTTP 400), never a server fault.
func TestLabelWindowRequestErrors(t *testing.T) {
	eng := lclgrid.NewEngine()
	cases := []struct {
		name string
		req  lclgrid.LabelRequest
		want string
	}{
		{"unknown key", lclgrid.LabelRequest{Key: "nope", W: 1, H: 1}, "unknown problem"},
		{"non-table key", lclgrid.LabelRequest{Key: "is", W: 1, H: 1}, "no normal-form synthesis hint"},
		{"missing key", lclgrid.LabelRequest{W: 1, H: 1}, "needs a problem key"},
		{"bad window", lclgrid.LabelRequest{Key: "mis", W: 0, H: 3}, "window must be positive"},
		{"huge side", lclgrid.LabelRequest{Key: "mis", N: 2_000_000, W: 1, H: 1}, "exceeds the label-request bound"},
		{"torus too small", lclgrid.LabelRequest{Key: "mis", Sides: []int{4, 4}, W: 1, H: 1}, "below every normal form"},
		{"bad mode", lclgrid.LabelRequest{Key: "mis", W: 1, H: 1, Mode: "psychic"}, "unknown label mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eng.LabelWindow(bg, tc.req)
			var reqErr *lclgrid.RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("got %v, want a RequestError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExportGridMatchesSolve streams a whole small grid through
// ExportGrid and checks the reassembled labels equal the full-grid
// Solve, that bands arrive in order with bounded height, and that an
// emit error aborts the stream (the graceful-drain path).
func TestExportGridMatchesSolve(t *testing.T) {
	eng := lclgrid.NewEngine()
	const side = 13
	g := lclgrid.Square(side)
	full, err := eng.Solve(bg, lclgrid.SolveRequest{
		Key: "mis", Torus: g, IDs: lclgrid.AffineIDs(g.N(), 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, g.N())
	nextY, bands := 0, 0
	err = eng.ExportGrid(bg, lclgrid.ExportRequest{
		Key: "mis", N: side, Seed: 3, BandRows: 4,
	}, func(b lclgrid.LabelBand) error {
		if b.Y != nextY {
			t.Errorf("band starts at row %d, want %d", b.Y, nextY)
		}
		if b.Rows < 1 || b.Rows > 4 {
			t.Errorf("band height %d, want 1..4", b.Rows)
		}
		if len(b.Labels) != b.Rows*side {
			t.Errorf("band carries %d labels, want %d", len(b.Labels), b.Rows*side)
		}
		copy(labels[b.Y*side:], b.Labels)
		nextY += b.Rows
		bands++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nextY != side {
		t.Fatalf("bands covered %d rows, torus has %d", nextY, side)
	}
	if want := (side + 3) / 4; bands != want {
		t.Errorf("got %d bands, want %d", bands, want)
	}
	for v := range labels {
		if labels[v] != full.Labels[v] {
			t.Fatalf("node %d: export label %d, full-grid label %d", v, labels[v], full.Labels[v])
		}
	}

	// A failing emit (client gone) aborts the stream with that error.
	boom := errors.New("client gone")
	calls := 0
	err = eng.ExportGrid(bg, lclgrid.ExportRequest{Key: "mis", N: side, BandRows: 4},
		func(lclgrid.LabelBand) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Errorf("emit error: got %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after failing, want 1", calls)
	}
}

// windowEvents is an Observer recording window event counts and the
// stats of the last window to end.
type windowEvents struct {
	starts, ends, errs int
	stats              lclgrid.WindowStats
}

func (w *windowEvents) Observe(ev lclgrid.Event) {
	switch ev.Kind {
	case lclgrid.EventWindowStart:
		w.starts++
	case lclgrid.EventWindowEnd:
		w.ends++
		w.stats = ev.Stats
		if ev.Err != nil {
			w.errs++
		}
	}
}

// TestWindowObserverEvents checks the window-event fan-out: observers
// see window events, and errors are counted.
func TestWindowObserverEvents(t *testing.T) {
	rec := &windowEvents{}
	eng := lclgrid.NewEngine(lclgrid.WithObserver(rec))
	if _, err := eng.LabelWindow(bg, lclgrid.LabelRequest{Key: "mis", N: 16, W: 2, H: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LabelWindow(bg, lclgrid.LabelRequest{Key: "nope", W: 1, H: 1}); err == nil {
		t.Fatal("expected an error for an unknown key")
	}
	if rec.starts != 2 || rec.ends != 2 || rec.errs != 1 {
		t.Errorf("observer saw starts=%d ends=%d errs=%d, want 2/2/1", rec.starts, rec.ends, rec.errs)
	}
}
