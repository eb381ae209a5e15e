package lclgrid

import (
	"context"
	"slices"
	"testing"
)

// TestPlanBuildsIDsOnlyWhenRead: a seeded plan builds its identifier
// permutation only when a stage reads identifiers, and then builds the
// assignment the request names.
func TestPlanBuildsIDsOnlyWhenRead(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	for _, c := range []struct {
		key   string
		n     int
		built bool
	}{
		{"is", 12, false},      // constant fill
		{"lm:halt", 12, false}, // ID-free direct stage
		{"3col", 6, false},     // Θ(n) baseline
		{"5col", 12, true},     // the normal form reads identifiers
	} {
		req := SolveRequest{Key: c.key, N: c.n, Seed: 3}
		plan, err := eng.Plan(req)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if _, err := eng.executePlan(ctx, req, plan); err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if built := plan.ids.ids != nil; built != c.built {
			t.Errorf("%s: identifiers built = %v, want %v", c.key, built, c.built)
		}
		if c.built && !slices.Equal(plan.ids.ids, PermutedIDs(c.n*c.n, req.Seed)) {
			t.Errorf("%s: built identifiers differ from PermutedIDs", c.key)
		}
	}
}
