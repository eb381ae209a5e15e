package lclgrid_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"testing"
	"time"

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

// goldenTimeout bounds each golden solve and label window. The whole
// matrix runs in well under a second; a wrong S_k or A′ can send a solve
// past its normal form into an open-ended synthesis, which this deadline
// turns into a failure naming the request instead of a hung suite.
const goldenTimeout = 5 * time.Second

// goldenCtx returns a context that expires after goldenTimeout.
func goldenCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), goldenTimeout)
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
				ctx, cancel := goldenCtx()
				res, err := eng.Solve(ctx, lclgrid.SolveRequest{Key: key, N: n, Seed: seed})
				cancel()
				if errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s n=%d seed=%d: no answer within %v: %v", key, n, seed, goldenTimeout, err)
				}
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

// goldenLabelCase is one windowed-labeling request of the golden matrix.
type goldenLabelCase struct {
	name string
	req  lclgrid.LabelRequest
}

// goldenLabelCases lists the windows TestGoldenLabelWindows pins: every
// table-backed catalogue key on 10^10- and 10^12-node tori, in an
// interior and a seam-crossing window, at seed 0 and seed 7; a 32×32
// k=3 window; full grids at MinTorusSide, where the k-ball nearly wraps;
// and lattice mode.
func goldenLabelCases() []goldenLabelCase {
	var cases []goldenLabelCase
	for _, key := range []string{"mis", "5col", "orient134", "4col"} {
		for _, side := range []int{100_000, 1_000_000} {
			for _, seed := range []int64{0, 7} {
				cases = append(cases,
					goldenLabelCase{fmt.Sprintf("%s/%d/seed%d/interior", key, side, seed), lclgrid.LabelRequest{
						Key: key, Sides: []int{side, side}, Seed: seed,
						X: side / 8 * 3, Y: side / 5 * 2, W: 8, H: 6,
					}},
					goldenLabelCase{fmt.Sprintf("%s/%d/seed%d/seam", key, side, seed), lclgrid.LabelRequest{
						Key: key, Sides: []int{side, side}, Seed: seed,
						X: side - 3, Y: -2, W: 8, H: 6,
					}})
			}
		}
	}
	return append(cases,
		goldenLabelCase{"4col/32x32", lclgrid.LabelRequest{
			Key: "4col", Sides: []int{1_000_000, 1_000_000}, Seed: 7,
			X: 999_990, Y: 420_000, W: 32, H: 32,
		}},
		goldenLabelCase{"4col/min-side", lclgrid.LabelRequest{
			Key: "4col", N: 28, Seed: 3, X: 0, Y: 0, W: 28, H: 28,
		}},
		goldenLabelCase{"mis/min-side", lclgrid.LabelRequest{
			Key: "mis", Sides: []int{12, 13}, Seed: 5, X: 0, Y: 0, W: 12, H: 13,
		}},
		goldenLabelCase{"mis/lattice", lclgrid.LabelRequest{
			Key: "mis", Sides: []int{100_000, 100_000}, Mode: lclgrid.LabelModeLattice,
			X: 99_997, Y: 7, W: 8, H: 6,
		}},
		goldenLabelCase{"4col/lattice", lclgrid.LabelRequest{
			Key: "4col", Sides: []int{1_000_000, 1_000_000}, Mode: lclgrid.LabelModeLattice,
			X: 123_456, Y: 999_999, W: 8, H: 6,
		}},
	)
}

// goldenLabelWindows pins the SHA-256 of each goldenLabelCases response
// JSON (labels, rounds and work stats), plus "export", the hash of a
// 100×100 ExportGrid's bands and cumulative stats.
var goldenLabelWindows = map[string]string{
	"mis/100000/seed0/interior":        "8b0084655970f8d0017f1a06ae517a7801bd05f3469cb14eecb2445ef79903da",
	"mis/100000/seed0/seam":            "9dbb93bb6b625ecf6d62213760ea1490e94516f7dba3eb2733dae83d735b5f15",
	"mis/100000/seed7/interior":        "104f61c6695be1698462cc70fcbb416da623d1cb8eae70b11cfe4bee47e0f401",
	"mis/100000/seed7/seam":            "4f08706f515cf4b8b9747b763ef1b4f3f8d70baa70106435ea3ead240a4facd0",
	"mis/1000000/seed0/interior":       "1359ded9b0235485ff93d8f78ea91fdbcbb6656175576ad127a8d72b06e8cbb8",
	"mis/1000000/seed0/seam":           "855f528fc064e56161a93f3c59e0c586a9d5256d8c19fa344acea73825639749",
	"mis/1000000/seed7/interior":       "d4a0b66b0d57065f67e9eb76e395aa8f61f6d0628d8ebc2ca0076a716b08443f",
	"mis/1000000/seed7/seam":           "ffad621f42c5cf18683a22224691e8c07908a10bab2764577ed12516ff87fe0d",
	"5col/100000/seed0/interior":       "5690b7d4088cc80858854cab0d874cea1dd14a425b986f365a214fa71fde4adb",
	"5col/100000/seed0/seam":           "d898a39a06b16807e5727eda93e72307b823f6cd0737a86ab0ab087e2c8fc67c",
	"5col/100000/seed7/interior":       "6d49e306a0d148f4f80c1fd8095065c2241a787e73f1b203779e55c38cc65158",
	"5col/100000/seed7/seam":           "248ff6e637468ea3a8924a8d2afba306933e6caa7e5ce4552f89b99bb82067b5",
	"5col/1000000/seed0/interior":      "8370e7fd4d159f4b00289c55b87d6c3a386129d2628513f6431ea3c02c24727a",
	"5col/1000000/seed0/seam":          "0b3b9082852cad91f8cd90a9424f37b4fe9be828a575463b652589cc4731d284",
	"5col/1000000/seed7/interior":      "a1227dcc86a543619af34c213ea3a0ce37af3cddff5b27bd73bec9bdd31eae2f",
	"5col/1000000/seed7/seam":          "f6fa36ffa5b4f79cb30f5c21b9269d9234f56370e34dd1ea5a0610c73f34deb4",
	"orient134/100000/seed0/interior":  "b417c1a171157329e275c95b63b700666d89fffbddc348b9152d844b163ecfd2",
	"orient134/100000/seed0/seam":      "2802e28b87cbb8f662b6d544ace78fc9fab37105c8116dd0610686fd99fcb630",
	"orient134/100000/seed7/interior":  "19d66adbc59ea899346f5b36a1111a545ff7be131239a1ff7ac32c5bc06200ab",
	"orient134/100000/seed7/seam":      "2f90cbb7d0b0e5937316f3bb0e22f4269c14602c5ef0b065d786819c00e9de09",
	"orient134/1000000/seed0/interior": "8b3ff138b208fa08ca7df69f5614d3fc705984bf773d213ea954e77e182e5b0c",
	"orient134/1000000/seed0/seam":     "c3b4d57160f84fe43c7b79b9c2cd7933775e6b68795c3b99874de1a15a549964",
	"orient134/1000000/seed7/interior": "8865d6cfa508b43bc92fcf143c206eea232cb5e012c07eb8fe07c6ba4a1f0516",
	"orient134/1000000/seed7/seam":     "b6fae36b6e9b5982bd9bd445c604277bff4532fd6222175252620b489af8c095",
	"4col/100000/seed0/interior":       "600c637f7a0b2b4e2f470ea8e8568555887883c6c7e1a67431ee9ac6ab531d01",
	"4col/100000/seed0/seam":           "0be6fa2dbf64d61c5d27f6e4b90a8874832446a54c3de64a0ee5d2355d5be94f",
	"4col/100000/seed7/interior":       "ee024c4716e63549513929a2d53821690ac2512e59d0cb1c35f87a62e1118d57",
	"4col/100000/seed7/seam":           "ea2fa5e62cadc5aff1c04048d08c2445132d5e805a65d7e876bf782b69894a63",
	"4col/1000000/seed0/interior":      "61deeac4b45b636872774c052c1faaf6f380441943b7133160b5d831c5091aea",
	"4col/1000000/seed0/seam":          "ec40ffe611886980c56f738fc880725a48c4ee70d3791e31b18b372b1d836c5b",
	"4col/1000000/seed7/interior":      "15a07152c930ecc14eccf551eac78d7b198c35c043420270d37c2a4afe952849",
	"4col/1000000/seed7/seam":          "0ef4353791f22140140dc7b3c042e8b0ac59419f6783f7184d65e23f7cbbe6ae",
	"4col/32x32":                       "0997b0fbd7a68589cc106ebff510cd470ba78843eed32183cdc1c2ddb30ba20c",
	"4col/min-side":                    "747c0d68416d744589ca75808cc116af14b35af64b0a5c1104883f45b7e04fb9",
	"mis/min-side":                     "2b579ba99b3831b5e2deb8175107d3d5ee5d9545d353746803e32a4bb5fa9f55",
	"mis/lattice":                      "56c72f021fac8a38b347999175fad35c24dc2a67166a10e7bf8ef1448ae6fcf6",
	"4col/lattice":                     "a52a895d5343f7b96c38a15f25a47b2c5f02d9f475243aea28772a0635fd1415",
	"export":                           "02a22614774b3854148541db87930ae6c2c1572bdff0ab743c9bce558507e9d7",
}

// TestGoldenLabelWindows: every windowed-labeling response, stats
// included, and a banded whole-grid export reproduce their recorded
// hashes, so the window evaluator's labels and work counters are
// byte-identical across changes to it.
func TestGoldenLabelWindows(t *testing.T) {
	rec := &windowEvents{}
	eng := lclgrid.NewEngine(lclgrid.WithObserver(rec))
	check := func(name string, sum []byte) {
		t.Helper()
		if got := hex.EncodeToString(sum); got != goldenLabelWindows[name] {
			t.Errorf("%s: hash %s, want %s", name, got, goldenLabelWindows[name])
		}
	}
	for _, c := range goldenLabelCases() {
		ctx, cancel := goldenCtx()
		res, err := eng.LabelWindow(ctx, c.req)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		check(c.name, sum[:])
	}
	h := sha256.New()
	ctx, cancel := goldenCtx()
	defer cancel()
	err := eng.ExportGrid(ctx, lclgrid.ExportRequest{Key: "4col", N: 100, Seed: 7, BandRows: 25}, func(b lclgrid.LabelBand) error {
		fmt.Fprintf(h, "y %d rows %d labels %v\n", b.Y, b.Rows, b.Labels)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "stats %+v", rec.stats)
	check("export", h.Sum(nil))
}
