package lclgrid

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestPlanLabel exercises the label planner white-box: resolved shapes,
// hint filtering, the forced-power override, and the RequestError
// contract on every client-side failure.
func TestPlanLabel(t *testing.T) {
	eng := NewEngine()

	lp, err := eng.planLabel(LabelRequest{Key: "mis", W: 2, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if side := lp.spec.SmallestSide(); lp.t.NX() != side || lp.t.NY() != side {
		t.Errorf("defaulted torus %dx%d, want the spec's smallest side %d", lp.t.NX(), lp.t.NY(), side)
	}
	if lp.mode != LabelModeExact {
		t.Errorf("defaulted mode %q, want %q", lp.mode, LabelModeExact)
	}
	if len(lp.attempts) != 1 || lp.attempts[0].K != 1 {
		t.Errorf("attempts = %v, want the spec's single k=1 hint", lp.attempts)
	}

	// Power forces a single synthesis shape with DefaultWindow defaults.
	lp, err = eng.planLabel(LabelRequest{Key: "mis", N: 40, W: 2, H: 2, Power: 2})
	if err != nil {
		t.Fatal(err)
	}
	dh, dw := DefaultWindow(2)
	if len(lp.attempts) != 1 || lp.attempts[0] != (SynthAttempt{K: 2, H: dh, W: dw}) {
		t.Errorf("forced-power attempts = %v, want [{2 %d %d}]", lp.attempts, dh, dw)
	}

	// Hints that don't fit the torus are filtered, not tried and failed.
	lp, err = eng.planLabel(LabelRequest{Key: "orient134", N: 12, W: 2, H: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lp.attempts {
		if !attemptFits(lp.t, a) {
			t.Errorf("planned attempt %v does not fit a 12x12 torus", a)
		}
	}

	for name, req := range map[string]LabelRequest{
		"unknown key":   {Key: "nope", W: 1, H: 1},
		"inline-only":   {Key: "is", W: 1, H: 1},
		"too small":     {Key: "mis", N: 4, W: 1, H: 1},
		"power too big": {Key: "mis", W: 1, H: 1, Power: maxRequestPower + 1},
		"bad sides":     {Key: "mis", Sides: []int{12}, W: 1, H: 1},
	} {
		if _, err := eng.planLabel(req); err == nil {
			t.Errorf("%s: planned without error", name)
		} else if reqErr := (*RequestError)(nil); !errors.As(err, &reqErr) {
			t.Errorf("%s: got %v, want a RequestError", name, err)
		}
	}
}

// FuzzLabelRequestJSON fuzzes the label wire decoder end to end: any
// byte string that decodes into a LabelRequest and passes Validate must
// plan without panicking or allocating beyond the request bounds — the
// exact exposure of POST /v1/labels. Planning is SAT-free, so even the
// largest admissible shapes (10^12-node tori) stay cheap.
func FuzzLabelRequestJSON(f *testing.F) {
	seeds := []string{
		`{"key":"mis","sides":[100000,100000],"seed":7,"x":12345,"y":99999,"w":4,"h":3}`,
		`{"key":"mis","n":1000000,"x":-3,"y":999999,"w":6,"h":4}`,
		`{"key":"4col","n":28,"w":8,"h":8,"mode":"exact"}`,
		`{"key":"mis","n":15,"mode":"lattice","w":15,"h":15}`,
		`{"key":"orient134","sides":[16,20],"w":2,"h":2,"power":1}`,
		`{"key":"mis","w":1048576,"h":2}`,
		`{"key":"mis","w":-1,"h":3}`,
		`{"key":"mis","n":2000000,"w":1,"h":1}`,
		`{"key":"mis","sides":[0,5],"w":1,"h":1}`,
		`{"key":"mis","sides":[5,5,5],"w":1,"h":1}`,
		`{"key":"5col","w":1,"h":1,"power":99,"window_h":-2}`,
		`{"key":"is","w":1,"h":1}`,
		`{"key":"1024col","n":12,"w":1,"h":1}`,
		`{"key":"mis","mode":"psychic","w":1,"h":1}`,
		`{"w":3,"h":3}`,
		`[]`,
		`{"key":`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	eng := NewEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req LabelRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a LabelRequest document; nothing to check
		}
		if err := req.Validate(); err != nil {
			return // rejected at the wire, as intended
		}
		lp, err := eng.planLabel(req)
		if err == nil && lp == nil {
			t.Fatal("planLabel returned nil plan and nil error")
		}
		if err != nil {
			// Planning failures after a passing Validate must still be
			// client-attributable (HTTP 400), never a server fault.
			reqErr := (*RequestError)(nil)
			if !errors.As(err, &reqErr) {
				t.Fatalf("planLabel error %v is not a RequestError", err)
			}
		}
	})
}

// TestForcedShapeDefaultsEachSide: a forced power with one window side
// set keeps that side and defaults only the other, and /v1/solve and
// /v1/labels bodies naming the same shape plan the same attempt.
func TestForcedShapeDefaultsEachSide(t *testing.T) {
	eng := NewEngine()
	want := SynthAttempt{K: 2, H: 4, W: 3}

	var sreq SolveRequest
	if err := json.Unmarshal([]byte(`{"key":"5col","n":20,"power":2,"h":4}`), &sreq); err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if atts := plan.Strategies[0].Attempts; len(atts) != 1 || (SynthAttempt{atts[0].K, atts[0].H, atts[0].W}) != want {
		t.Errorf("/v1/solve plans %+v, want the single attempt %+v", atts, want)
	}

	var lreq LabelRequest
	if err := json.Unmarshal([]byte(`{"key":"5col","n":20,"w":2,"h":2,"power":2,"window_h":4}`), &lreq); err != nil {
		t.Fatal(err)
	}
	lp, err := eng.planLabel(lreq)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.attempts) != 1 || lp.attempts[0] != want {
		t.Errorf("/v1/labels plans %+v, want the single attempt %+v", lp.attempts, want)
	}
}
