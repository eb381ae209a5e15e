package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"lclgrid/internal/grid"
	"lclgrid/internal/lcl"
)

// statsProblems are the catalogue problems whose solver work is pinned
// below: the define-mixed workload's eight bases plus orient034.
func statsProblems() map[string]*lcl.Problem {
	return map[string]*lcl.Problem{
		"2col":      lcl.VertexColoring(2, 2),
		"3col":      lcl.VertexColoring(3, 2),
		"4col":      lcl.VertexColoring(4, 2),
		"5col":      lcl.VertexColoring(5, 2),
		"6col":      lcl.VertexColoring(6, 2),
		"mis":       lcl.MIS(2).Problem,
		"orient134": lcl.XOrientation([]int{1, 3, 4}, 2).Problem,
		"orient013": lcl.XOrientation([]int{0, 1, 3}, 2).Problem,
		"orient034": lcl.XOrientation([]int{0, 3, 4}, 2).Problem,
	}
}

// labelsHash is the SHA-256 of a labelling's fmt.Sprint form.
func labelsHash(labels []int) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(labels))))
}

// solverCounts is what a pinned solve must reproduce exactly.
type solverCounts struct {
	sat                                                bool
	conflicts, decisions, propagated, learned, clauses int
	hash                                               string // of the table or solution; "" when UNSAT
}

// TestTileCSPStatsPinned pins the search itself, not only its answer:
// for every base at every OracleSchedule(3) shape up to its first SAT
// shape, and for the Θ(n) baseline on small tori, the verdict, the
// solver's counters, NumClauses and the labelling's hash. A change to
// how the CSP is encoded or propagated that keeps the answers but
// reorders the search shows up here. The (2, 5, 3) rows are refuted at
// level 0 by the empty tile's vertical self-loop.
func TestTileCSPStatsPinned(t *testing.T) {
	ctx := context.Background()
	probs := statsProblems()
	tileRows := []struct {
		name    string
		k, h, w int
		want    solverCounts
	}{
		{"3col", 1, 3, 2, solverCounts{false, 11, 17, 242, 7, 235, ""}},
		{"3col", 1, 3, 3, solverCounts{false, 11, 33, 288, 8, 675, ""}},
		{"3col", 2, 5, 3, solverCounts{false, 0, 0, 13, 0, 1401, ""}},
		{"3col", 2, 5, 5, solverCounts{false, 20, 647, 5298, 15, 30795, ""}},
		{"3col", 3, 7, 5, solverCounts{false, 82, 816, 42711, 77, 38940, ""}},
		{"3col", 3, 7, 7, solverCounts{false, 390, 8813, 249514, 383, 515956, ""}},
		{"4col", 1, 3, 2, solverCounts{false, 34, 58, 657, 30, 308, ""}},
		{"4col", 1, 3, 3, solverCounts{false, 41, 101, 1152, 37, 887, ""}},
		{"4col", 2, 5, 3, solverCounts{false, 0, 0, 13, 0, 1831, ""}},
		{"4col", 2, 5, 5, solverCounts{false, 292, 2383, 89703, 288, 40589, ""}},
		{"4col", 3, 7, 5, solverCounts{true, 279, 4590, 146699, 279, 51227, "4f234ec98ff37e1d93ac5b41a327aaa1db2a8181509048dc29f0fc73d787f4f7"}},
		{"5col", 1, 3, 2, solverCounts{true, 0, 41, 39, 0, 381, "a6b8880ee5a27199b0461cd93dd37517b42bde8eb2816828155cc00afb8dcf17"}},
		{"6col", 1, 3, 2, solverCounts{true, 0, 58, 38, 0, 454, "a6b8880ee5a27199b0461cd93dd37517b42bde8eb2816828155cc00afb8dcf17"}},
		{"2col", 1, 3, 2, solverCounts{false, 2, 1, 22, 0, 162, ""}},
		{"2col", 1, 3, 3, solverCounts{false, 2, 1, 42, 0, 463, ""}},
		{"2col", 2, 5, 3, solverCounts{false, 0, 0, 27, 0, 971, ""}},
		{"2col", 2, 5, 5, solverCounts{false, 2, 1, 94, 0, 21001, ""}},
		{"2col", 3, 7, 5, solverCounts{false, 2, 1, 26, 0, 26653, ""}},
		{"2col", 3, 7, 7, solverCounts{false, 2, 1, 4350, 0, 351860, ""}},
		{"mis", 1, 3, 2, solverCounts{false, 52, 270, 7564, 38, 13959, ""}},
		{"mis", 1, 3, 3, solverCounts{true, 0, 44, 580, 0, 40531, "0317a844590b53f16066f6bb897c68f57d0061e1da842ce7aaaba1ca354b9e8e"}},
		{"orient134", 1, 3, 2, solverCounts{false, 44, 82, 2374, 40, 3009, ""}},
		{"orient134", 1, 3, 3, solverCounts{true, 60, 203, 5067, 60, 8731, "d1f692412024941b1099f7a4e0813d13d850d1c3c4a2a0e678f6017a166b02a2"}},
		{"orient013", 1, 3, 2, solverCounts{false, 46, 116, 2506, 40, 3009, ""}},
		{"orient013", 1, 3, 3, solverCounts{true, 14, 46, 1292, 13, 8731, "35a7164f0d639e26c230c926f27381064254d3070d423150fba9c0fa2c575745"}},
	}
	graphs := map[[3]int]*TileGraph{}
	for _, r := range tileRows {
		shape := [3]int{r.k, r.h, r.w}
		tg := graphs[shape]
		if tg == nil {
			var err error
			if tg, err = BuildTileGraph(ctx, r.k, r.h, r.w); err != nil {
				t.Fatal(err)
			}
			graphs[shape] = tg
		}
		enc := newCSPEncoding(probs[r.name], 2)
		s := newTileCSPSolver(enc, tg)
		got := solverCounts{clauses: s.NumClauses()}
		ok, err := s.SolveContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.sat = ok; ok {
			table, err := extractTable(s, enc, tg)
			if err != nil {
				t.Fatal(err)
			}
			got.hash = labelsHash(table)
		}
		got.conflicts, got.decisions, got.propagated, got.learned = s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Propagated, s.Stats.Learned
		if got != r.want {
			t.Errorf("%s at (%d, %d, %d):\n got %+v\nwant %+v", r.name, r.k, r.h, r.w, got, r.want)
		}
	}
	// Every base reaches its first SAT shape within the schedule, or
	// exhausts it: the rows above cover each walk in full.
	for _, sh := range OracleSchedule(3) {
		if graphs[sh] == nil {
			t.Errorf("schedule shape %v has no pinned row", sh)
		}
	}

	globalRows := []struct {
		name string
		n    int
		want solverCounts
	}{
		{"3col", 4, solverCounts{true, 0, 14, 34, 0, 112, "2f547a2ec793ef93a323bce9cf1dc965ffe68a46154843d6945390755140bd78"}},
		{"3col", 6, solverCounts{true, 0, 34, 74, 0, 252, "7b9fbf96299cb29762e003a10fcf200e1fc58eb6f5e07201f683838b0393ce14"}},
		{"3col", 8, solverCounts{true, 0, 62, 130, 0, 448, "88349522275893a046e8550734087679619ef471a7b03c36da193449bbd1e5cd"}},
		{"5col", 6, solverCounts{true, 0, 109, 71, 0, 396, "7b9fbf96299cb29762e003a10fcf200e1fc58eb6f5e07201f683838b0393ce14"}},
		{"5col", 8, solverCounts{true, 0, 193, 127, 0, 704, "88349522275893a046e8550734087679619ef471a7b03c36da193449bbd1e5cd"}},
		{"5col", 10, solverCounts{true, 0, 301, 199, 0, 1100, "2e63578e8b117c81bda96c60ff5ab294f97cfd6ba87e60d10d4f030b2a05463c"}},
		{"2col", 4, solverCounts{true, 0, 1, 31, 0, 80, "d3825274c6d88e50116d9f3b4bb623932977b525041df8c2db419c9ef35b4692"}},
		{"2col", 6, solverCounts{true, 0, 1, 71, 0, 180, "ee0739e0df2fc22f133e7a59f487474b2605fb0a88759e6327bcd1ff2546c14b"}},
		{"2col", 8, solverCounts{true, 0, 1, 127, 0, 320, "d4759a77f9335e63a67580fdb246df0d6a15fdc5ab82ecf5029a409857030d83"}},
		{"orient134", 6, solverCounts{true, 0, 72, 252, 0, 2988, "93ddc0a77a72f688e21ee47bb2fed02f06b1bd9d8af634975187fa639075f94e"}},
		{"orient134", 8, solverCounts{true, 0, 120, 456, 0, 5312, "e84ad7bb458f064924e198bf0f7a266697f38084c8c6dd3d9c9ecb028d074da2"}},
		{"orient134", 10, solverCounts{true, 0, 180, 720, 0, 8300, "4b72c44920498a882a4ace05a6a4c3c2c599e1b685bff810f06021d6be406e37"}},
		{"orient034", 4, solverCounts{true, 5, 35, 173, 5, 656, "28d0eb32227cc21fd41f5ac9395ad42c438caaf743df9208511c0d6e01366166"}},
		{"orient034", 6, solverCounts{true, 5, 31, 370, 5, 1476, "fda10f55391e206faad3861098d064883b2f0810b0d1bca13874f77db140d90a"}},
		{"orient034", 8, solverCounts{true, 5, 54, 491, 5, 2624, "66c6312a13677d3d6dc65de0a99cfd49bc427a4cfd7a3c29bf9a4180a8a3de74"}},
	}
	for _, r := range globalRows {
		torus := grid.Square(r.n)
		enc := newCSPEncoding(probs[r.name], torus.Dim())
		s := newGlobalSolver(enc, torus)
		got := solverCounts{clauses: s.NumClauses()}
		ok, err := s.SolveContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.sat = ok; ok {
			out := make([]int, torus.N())
			for u := range out {
				out[u] = enc.label(s, u)
			}
			got.hash = labelsHash(out)
		}
		got.conflicts, got.decisions, got.propagated, got.learned = s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Propagated, s.Stats.Learned
		if got != r.want {
			t.Errorf("SolveGlobal %s at n=%d:\n got %+v\nwant %+v", r.name, r.n, got, r.want)
		}
	}
}
