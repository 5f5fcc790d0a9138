package seeded

import (
	"math"
	"math/rand"
	"testing"
)

// belowRates are the rates Below is held to Float64 at: none, the least
// positive, a failure rate, half, the greatest below one, and all.
var belowRates = []float64{0, math.SmallestNonzeroFloat64, 0.1, 0.5, math.Nextafter(1, 0), 1}

// TestBelowIsFloat64Below: every bit Below sets is a Float64 draw below p,
// at every word width, across blocks, and the stream is left where the
// Float64 calls leave math/rand's.
func TestBelowIsFloat64Below(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		for _, p := range belowRates {
			got, ref := New(seed), rand.New(rand.NewSource(seed))
			for k := 0; k < 3000; k++ {
				n := 1 + k%64
				var want uint64
				for b := range n {
					if ref.Float64() < p {
						want |= 1 << b
					}
				}
				if x := got.Below(n, p); x != want {
					t.Fatalf("seed %d, rate %v, word %d of %d bits: %#x, math/rand %#x", seed, p, k, n, x, want)
				}
			}
			if got.Int63() != ref.Int63() {
				t.Fatalf("seed %d, rate %v: Below left the stream elsewhere", seed, p)
			}
		}
	}
}

// maxSource is a seeded source whose every third value is one of the 500
// highest Int63 values, each of which rounds to 1 over 2⁶³, so Float64 draws
// it again; the seeded stream gets there about once in 2⁵⁴ draws.
type maxSource struct {
	rand.Source
	calls int
}

func (s *maxSource) Int63() int64 {
	s.calls++
	if s.calls%3 == 0 {
		return math.MaxInt64 - int64(s.calls%500)
	}
	return s.Source.Int63()
}

// TestBelowRedraws: Below redraws where Float64 does. The scripted values
// are no seed's, so the stream is the window of them FromSource builds, and
// the test draws inside it: a draw takes 1.5 values, so Lag/2 draws take
// under Lag.
func TestBelowRedraws(t *testing.T) {
	for _, p := range belowRates {
		got, ref := FromSource(&maxSource{Source: rand.NewSource(3)}), rand.New(&maxSource{Source: rand.NewSource(3)})
		drawn := 0
		for k := 0; drawn+64 < Lag/2; k++ {
			n := 1 + k%64
			var want uint64
			for b := range n {
				if ref.Float64() < p {
					want |= 1 << b
				}
			}
			drawn += n
			if x := got.Below(n, p); x != want {
				t.Fatalf("rate %v, word %d of %d bits: %#x, math/rand %#x", p, k, n, x, want)
			}
		}
		if got.Int63() != ref.Int63() {
			t.Fatalf("rate %v: Below left the stream elsewhere", p)
		}
	}
}

// TestUint64IsMathRand: a stream New made draws math/rand's Uint64 — top
// bit included — at several seeds, across block refills, and interleaved
// with the other draws, which stay math/rand's too.
func TestUint64IsMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		got, ref := New(seed), rand.New(rand.NewSource(seed))
		top := 0
		for k := 0; k < 3*block; k++ {
			switch k % 5 {
			case 3:
				if g, r := got.Float64(), ref.Float64(); g != r {
					t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", seed, k, g, r)
				}
			case 4:
				if g, r := got.Intn(1000), ref.Intn(1000); g != r {
					t.Fatalf("seed %d, draw %d: Intn %d, math/rand %d", seed, k, g, r)
				}
			default:
				g, r := got.Uint64(), ref.Uint64()
				if g != r {
					t.Fatalf("seed %d, draw %d: Uint64 %#x, math/rand %#x", seed, k, g, r)
				}
				top += int(g >> 63)
			}
		}
		if top == 0 {
			t.Fatalf("seed %d: no draw had its top bit set", seed)
		}
	}
}
