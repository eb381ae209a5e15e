package lclgrid_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	lclgrid "lclgrid"
	"lclgrid/internal/lm"
)

// goldenSolves pins, per catalogue key, the SHA-256 of every solve's
// labels (decoded L_M labels for lm:halt), rounds, solver, note and
// error over n ∈ {12, 24, 26, 28, 33, 40} and seeds 1–3. A change to
// S_k, A′, the L_M lattice or the verifier that moves one output bit
// moves its key's hash.
var goldenSolves = map[string]string{
	"5col":      "82fbae2a95499376a0889146f69ea6335cefcf271b53ac270340c2c154c7b3ba",
	"mis":       "45e84ca65aac0d93d928dab2c3d37b0f1a80b215702c99d82af0862e30e75387",
	"orient134": "d4de9fcc634c2420e6ff9a4999cf7b569130af7bf12d8321bde6feb903ac52af",
	"orient013": "0cd7426d959c1f79ea37e042124eb74eb24c14db66a85527003d67d463b40210",
	"4col":      "112beb756332f67d86ac4664afd9a523b30e77af02c5f97d083cbdd036f97ed8",
	"lm:halt":   "b3cdd5d302efa373838c5ac20f4e00fae4586c610b2dc5e3db3a99b3eafe8b63",
	"is":        "62c42f6ae8125c5527f99da0d8042d74a640c7a95010301860909e39246cec19",
	"2col":      "24bd7c697307aaa0c252ddd4ce16f7104a887d3853cc82909cbd45083c43684b",
	"3col":      "204a9884bd4dc9a6460229af92c749ce553218f4002e46748732cbfebb043b88",
}

// goldenAnchors pins the anchor set and round account of S_k for a few
// shapes: two Linial rounds (n=40 k=1), none (n=40 k=3), L∞, a ball that
// wraps the torus (n=7 k=3) and a 1-D cycle.
var goldenAnchors = []struct {
	sides []int
	k     int
	norm  lclgrid.Norm
	want  string
}{
	{[]int{26, 26}, 1, lclgrid.L1, "65de0bbdef4cfcfa8071dc580781446ef14c426cf92feb5efb27611274027ccc"},
	{[]int{40, 40}, 3, lclgrid.L1, "c4ddf9bc70c38b3ed08612bde97c319d6eb3cbc92fb02ce9bccbb2318d55416e"},
	{[]int{30, 30}, 2, lclgrid.LInf, "57d6cd3b3872708a15b24717f7e643b5927ce474afa5f06b84f657e1af1f5970"},
	{[]int{7, 7}, 3, lclgrid.L1, "4b4dbe9d75f4f524098759ee777c8d1eec344f401c30485e6400bfbfe91fdf44"},
	{[]int{97}, 2, lclgrid.L1, "03147e40c9186a8e087ddd22e737a1a14ad50f660f2fe107ab27e5ed82b8db08"},
}

func hashSolve(h hash.Hash, res *lclgrid.Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	fmt.Fprintf(h, "solver %q note %q rounds %d labels %v\n", res.Solver, res.Note, res.Rounds, res.Labels)
	if dec, ok := res.Decoded.([]lm.Label); ok {
		for _, l := range dec {
			fmt.Fprintf(h, "%t %d %d %d", l.P1, l.Color, l.Q, l.X)
			if l.Cell != nil {
				fmt.Fprintf(h, " %+v", *l.Cell)
			}
			h.Write([]byte{';'})
		}
		h.Write([]byte{'\n'})
	}
}

// TestGoldenSolves: every solve in the matrix reproduces the recorded
// hash, so outputs, rounds and notes are byte-identical across changes
// to the solve-hot loops.
func TestGoldenSolves(t *testing.T) {
	eng := lclgrid.NewEngine()
	for _, key := range []string{"5col", "mis", "orient134", "orient013", "4col", "lm:halt", "is", "2col", "3col"} {
		h := sha256.New()
		for _, n := range []int{12, 24, 26, 28, 33, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := eng.Solve(context.Background(), lclgrid.SolveRequest{Key: key, N: n, Seed: seed})
				fmt.Fprintf(h, "n=%d seed=%d ", n, seed)
				hashSolve(h, res, err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenSolves[key] {
			t.Errorf("%s: solve hash %s, want %s", key, got, goldenSolves[key])
		}
	}
}

// TestGoldenAnchors: Anchors reproduces the recorded anchor sets and
// round counts.
func TestGoldenAnchors(t *testing.T) {
	for _, c := range goldenAnchors {
		tor, err := lclgrid.NewTorus(c.sides...)
		if err != nil {
			t.Fatal(err)
		}
		var r lclgrid.Rounds
		set := lclgrid.Anchors(tor, c.k, c.norm, lclgrid.PermutedIDs(tor.N(), 1), &r)
		h := sha256.New()
		fmt.Fprintf(h, "rounds %d set %v", r.Total(), set)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("sides %v k=%d %v: anchors hash %s, want %s", c.sides, c.k, c.norm, got, c.want)
		}
	}
}
