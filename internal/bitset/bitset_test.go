package bitset

import (
	"math/rand"
	"testing"
)

// TestRangesMatchPerBit holds every range operation to a loop over single
// bits, on sets whose length is under, at and over a word boundary, at
// densities from empty to full, over every [start, end) of the short sets
// and random ones of the long set.
func TestRangesMatchPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 128, 200, 1000} {
		for _, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			s := make([]uint64, Words(n))
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					Set(s, i)
				}
			}
			if tail := s[len(s)-1] &^ TailMask(n); tail != 0 {
				t.Fatalf("n=%d: TailMask leaves bits %#x past the set", n, tail)
			}
			tries := 2000
			if n <= 65 {
				tries = (n + 1) * (n + 1)
			}
			for try := 0; try < tries; try++ {
				start, end := rng.Intn(n+1), rng.Intn(n+1)
				if n <= 65 {
					start, end = try/(n+1), try%(n+1)
				}
				nextSet, nextClear, count := end, end, 0
				for i := start; i < end; i++ {
					if Get(s, i) {
						count++
						nextSet = min(nextSet, i)
					} else {
						nextClear = min(nextClear, i)
					}
				}
				if start >= end {
					nextSet, nextClear = end, end
				}
				if got := NextSet(s, start, end); got != nextSet {
					t.Fatalf("n=%d: NextSet(%d, %d) = %d, want %d", n, start, end, got, nextSet)
				}
				if got := NextClear(s, start, end); got != nextClear {
					t.Fatalf("n=%d: NextClear(%d, %d) = %d, want %d", n, start, end, got, nextClear)
				}
				if got := Count(s, start, end); got != count {
					t.Fatalf("n=%d: Count(%d, %d) = %d, want %d", n, start, end, got, count)
				}
				filled := append([]uint64(nil), s...)
				SetRange(filled, start, end)
				for i := 0; i < n; i++ {
					if want := Get(s, i) || (start <= i && i < end); Get(filled, i) != want {
						t.Fatalf("n=%d: bit %d is %v after SetRange(%d, %d)", n, i, !want, start, end)
					}
				}
				if tail := filled[len(s)-1] &^ TailMask(n); tail != 0 {
					t.Fatalf("n=%d: SetRange(%d, %d) set bits %#x past the set", n, start, end, tail)
				}
			}
		}
	}
}
