package coloring

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refFirstSeparating is the choice rule in its plainest form, the
// reference FirstSeparating must agree with: every point from x = 0 on
// goes through refEvalPoly.
func refFirstSeparating(digits []uint32, k, q int) int {
candidates:
	for x := 0; x < q; x++ {
		pv := refEvalPoly(digits[:k], x, q)
		for j := k; j < len(digits); j += k {
			if refEvalPoly(digits[j:j+k], x, q) == pv {
				continue candidates
			}
		}
		return x*q + pv
	}
	return -1
}

// refEvalPoly is Horner's rule reduced mod q on every step. Each step
// stays below q² < 2^64 for q < 2^32.
func refEvalPoly(coeffs []uint32, x, q int) int {
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*uint64(x) + uint64(coeffs[i])) % uint64(q)
	}
	return int(acc)
}

// tieAt adds c·(x − t) to the polynomial in seg (k >= 2), so over a
// prime q it agrees with the old one at x = t and nowhere else.
func tieAt(seg []uint32, t, c, q int) {
	hi, lo := bits.Mul64(uint64(q-t%q), uint64(c))
	seg[0] = uint32((uint64(seg[0]) + bits.Rem64(hi, lo, uint64(q))) % uint64(q))
	seg[1] = uint32((int(seg[1]) + c) % q)
}

// choiceInput returns the digits of a node and deg neighbours at level
// (d, q): random polynomials, a share of which copy the node's constant
// digit (a tie at x = 0) or are the node's polynomial tied at one small
// point, so the search runs past x = 0 as often as it stops there.
func choiceInput(rng *rand.Rand, deg, d, q int) []uint32 {
	k := d + 1
	digits := make([]uint32, (deg+1)*k)
	for i := range digits {
		digits[i] = uint32(rng.Intn(q))
	}
	for j := k; j < len(digits); j += k {
		switch rng.Intn(4) {
		case 0:
			digits[j] = digits[0]
		case 1:
			copy(digits[j:j+k], digits[:k])
			tieAt(digits[j:j+k], rng.Intn(deg+1), 1+rng.Intn(q-1), q)
		}
	}
	return digits
}

func checkChoice(t *testing.T, digits []uint32, k, q int) {
	t.Helper()
	if got, want := FirstSeparating(digits, k, q), refFirstSeparating(digits, k, q); got != want {
		t.Fatalf("FirstSeparating(%v, k=%d, q=%d) = %d, reference %d", digits, k, q, got, want)
	}
}

// TestFirstSeparatingMatchesReference checks the choice rule against the
// per-step-reduced reference at every level of the schedules of power
// graphs of degree 2 to 48 for identifier spaces up to 2^62, at a prime
// just below 2^32 where Horner's accumulator must reduce mid-loop, and
// on inputs built to tie at x = 0 and separate at x = 1.
func TestFirstSeparatingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	levels := 0
	for _, deg := range []int{2, 4, 8, 12, 24, 48} {
		for _, idSpace := range []int{200, 1 << 16, 1e10, 1e12, 1 << 40, 1 << 50, 1 << 62} {
			params, _ := LinialSchedule(idSpace, deg)
			for _, dq := range params {
				levels++
				d, q := dq[0], dq[1]
				for i := 0; i < 300; i++ {
					checkChoice(t, choiceInput(rng, deg, d, q), d+1, q)
				}
			}
		}
	}
	if levels < 40 {
		t.Fatalf("only %d schedule levels covered", levels)
	}

	// The largest prime below 2^32, with the node's digits all q−1:
	// already at x = 1 the accumulator passes 2^32.
	const bigQ = 4294967291
	for deg := 1; deg <= 8; deg++ {
		digits := make([]uint32, (deg+1)*2)
		for i := range digits {
			digits[i] = bigQ - 1
		}
		for j := 2; j < len(digits); j += 2 {
			tieAt(digits[j:j+2], j/2-1, 1+rng.Intn(bigQ-1), bigQ)
		}
		checkChoice(t, digits, 2, bigQ)
		if got := FirstSeparating(digits, 2, bigQ); got/bigQ != deg {
			t.Fatalf("deg %d: separated at x = %d, want %d", deg, got/bigQ, deg)
		}
	}

	// x = 0 ties and x = 1 separates, at the schedules' real levels.
	for _, dq := range [][2]int{{7, 37}, {2, 13}, {2, 11}, {5, 127}, {2, 53}} {
		d, q := dq[0], dq[1]
		for i := 0; i < 200; i++ {
			digits := choiceInput(rng, 4, d, q)
			copy(digits[d+1:2*(d+1)], digits[:d+1])
			tieAt(digits[d+1:2*(d+1)], 0, 1+rng.Intn(q-1), q)
			for j := 2 * (d + 1); j < len(digits); j += d + 1 {
				copy(digits[j:j+d+1], digits[:d+1])
				tieAt(digits[j:j+d+1], 2+rng.Intn(q-2), 1+rng.Intn(q-1), q)
			}
			checkChoice(t, digits, d+1, q)
			if got := FirstSeparating(digits, d+1, q); got/q != 1 {
				t.Fatalf("(%d, %d): separated at x = %d, want 1", d, q, got/q)
			}
		}
	}
}

// TestEvalPolyMatchesReference checks the lazily reduced Horner rule at
// points FirstSeparating rarely reaches: x near a q just below 2^32,
// with coefficients near q, near 0 or anywhere below q, for up to eight
// coefficients. A small leading coefficient leaves the accumulator just
// above 2^32 after a step, the edge of the overflow bound.
func TestEvalPolyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range []int{2, 37, 127, 65521, 2147483647, 4294967291} {
		for i := 0; i < 2000; i++ {
			coeffs := make([]uint32, 1+rng.Intn(8))
			for j := range coeffs {
				switch rng.Intn(3) {
				case 0:
					coeffs[j] = uint32(q - 1 - rng.Intn(min(q, 4)))
				case 1:
					coeffs[j] = uint32(rng.Intn(min(q, 4)))
				default:
					coeffs[j] = uint32(rng.Intn(q))
				}
			}
			x := q - 1 - rng.Intn(min(q, 1000))
			if i%2 == 0 {
				x = rng.Intn(q)
			}
			if got, want := evalPoly(coeffs, uint64(x), uint64(q)), refEvalPoly(coeffs, x, q); int(got) != want {
				t.Fatalf("evalPoly(%v, %d, %d) = %d, reference %d", coeffs, x, q, got, want)
			}
		}
	}
}

// fuzzPrimes are the moduli FuzzFirstSeparating draws from: the
// schedules' levels, small primes where every point may tie, and primes
// near 2^31 and 2^32.
var fuzzPrimes = []int{2, 3, 5, 11, 13, 37, 53, 127, 65521, 2147483647, 4294967291}

// FuzzFirstSeparating compares FirstSeparating with the reference on
// arbitrary digits: raw supplies little-endian 32-bit words, reduced
// mod q, for up to 49 polynomials of k = 1..8 coefficients. A neighbour
// equal to the node is nudged apart, so over a prime q the search ends
// within deg·d + 1 points.
func FuzzFirstSeparating(f *testing.F) {
	f.Add(uint8(5), uint8(7), []byte("node and four neighbours, eight digits each: thirty-seven"))
	f.Add(uint8(10), uint8(1), []byte{0xfa, 0xff, 0xff, 0xff, 0xfa, 0xff, 0xff, 0xff, 0xfa, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})
	f.Add(uint8(0), uint8(2), []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, qi, kb uint8, raw []byte) {
		q := fuzzPrimes[int(qi)%len(fuzzPrimes)]
		k := 1 + int(kb)%8
		segs := min(len(raw)/4/k, 49)
		if segs == 0 {
			return
		}
		digits := make([]uint32, segs*k)
		for i := range digits {
			digits[i] = uint32(int(binary.LittleEndian.Uint32(raw[4*i:])) % q)
		}
		for j := k; j < len(digits); j += k {
			if slices.Equal(digits[j:j+k], digits[:k]) {
				digits[j] = uint32((int(digits[j]) + 1) % q)
			}
		}
		checkChoice(t, digits, k, q)
	})
}

// BenchmarkFirstSeparating times one Linial choice at two levels the
// schedules really use: (7, 37) at power-graph degree 4 (the first round
// of a 10^12-node torus at k = 1) and (5, 127) at degree 24 (k = 3). The
// node and its neighbours carry the digits of seeded distinct colours of
// that level's colour space.
func BenchmarkFirstSeparating(b *testing.B) {
	for _, bc := range []struct {
		name           string
		deg, d, q, ids int
	}{
		{"d7q37deg4", 4, 7, 37, 1e12},
		{"d5q127deg24", 24, 5, 127, 1e12},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := bc.d + 1
			rng := rand.New(rand.NewSource(1))
			const inputs = 1024
			digits := make([]uint32, inputs*(bc.deg+1)*k)
			for i := 0; i < inputs; i++ {
				seen := map[int]bool{}
				for s := 0; s <= bc.deg; s++ {
					c := 1 + rng.Intn(bc.ids)
					for seen[c] {
						c = 1 + rng.Intn(bc.ids)
					}
					seen[c] = true
					at := (i*(bc.deg+1) + s) * k
					ToDigits(c, bc.q, digits[at:at+k])
				}
			}
			seg := (bc.deg + 1) * k
			i := 0
			for b.Loop() {
				if FirstSeparating(digits[i*seg:(i+1)*seg], k, bc.q) < 0 {
					b.Fatal("no separating point")
				}
				i = (i + 1) % inputs
			}
		})
	}
}
