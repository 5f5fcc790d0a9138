package kv

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"wearmem/internal/seeded"
)

// rankScenario is a scenario with only the popularity tables built, from
// cdf.
func rankScenario(cdf []float64) *scenario {
	return &scenario{zipfCDF: cdf, zipfGuide: guideTable(cdf)}
}

// checkRank fails t unless rank(u) is sort.SearchFloat64s's answer. It is
// called millions of times, so it marks itself a helper only on failure.
func checkRank(t *testing.T, s *scenario, u float64) {
	if got, want := s.rank(u), sort.SearchFloat64s(s.zipfCDF, u); got != want {
		t.Helper()
		t.Fatalf("rank(%v) = %d, sort.SearchFloat64s %d", u, got, want)
	}
}

func below(u float64) float64 { return math.Nextafter(u, 0) }

// TestRankMatchesSearch holds the guide-table rank to the binary search it
// replaced, where the two could part: at every CDF value and every bucket
// edge j/Keys, one ulp either side of each, at both ends of [0, 1), and at
// 2²⁰ values of the request stream. 3000 keys is not a power of two, so
// j/Keys and u·Keys round.
func TestRankMatchesSearch(t *testing.T) {
	for _, keys := range []int{64, 2048, 3000, 4096, 1 << 16} {
		for _, skew := range []float64{0.5, 0.981, 0.987, 0.99, 1.2, 2} {
			t.Run(fmt.Sprintf("keys=%d/skew=%g", keys, skew), func(t *testing.T) {
				s := rankScenario(zipfCDF(keys, skew))
				edges := append([]float64(nil), s.zipfCDF...)
				for j := 0; j < keys; j++ {
					edges = append(edges, float64(j)/float64(keys))
				}
				for _, u := range edges {
					for _, u := range []float64{below(u), u, math.Nextafter(u, 1)} {
						if u >= 0 && u < 1 {
							checkRank(t, s, u)
						}
					}
				}
				checkRank(t, s, 0)
				checkRank(t, s, below(1))
				rng := seeded.New(int64(keys) + int64(skew*1000))
				for i := 0; i < 1<<20; i++ {
					checkRank(t, s, rng.Float64())
				}
			})
		}
	}
}

// TestRankAtRoundedBucketEdges: where j/m rounds to a float past the first u
// of bucket j, a CDF value in that last ulp below j/m must still be found.
// Zipf CDF values practically never land there, so the tables are planted:
// the uniform CDF (r+1)/m with value j-1, which is j/m, moved one ulp down,
// for every j of five key counts whose j/m rounds that way.
func TestRankAtRoundedBucketEdges(t *testing.T) {
	planted := 0
	for _, m := range []int{66, 67, 100, 1000, 3000} {
		for j := 1; j < m; j++ {
			u := below(float64(j) / float64(m))
			if int(u*float64(m)) < j {
				continue // j/m is the bucket's first u
			}
			cdf := make([]float64, m)
			for r := range cdf {
				cdf[r] = float64(r+1) / float64(m)
			}
			cdf[j-1] = u
			checkRank(t, rankScenario(cdf), u)
			planted++
		}
	}
	if planted == 0 {
		t.Fatal("no key count rounds a bucket edge up, so nothing was checked")
	}
}

// FuzzRank: for any u in [0, 1), any positive skew and any key count the
// scenario takes, rank is sort.SearchFloat64s's answer. Inputs outside those
// ranges are folded into them.
func FuzzRank(f *testing.F) {
	f.Add(0.5, 0.99, uint16(2048))
	f.Add(0.0, 2.0, uint16(64))
	f.Add(math.Nextafter(1, 0), 0.5, uint16(4096))
	f.Add(0.1234, 0.987, uint16(3000))
	f.Fuzz(func(t *testing.T, u, skew float64, keys uint16) {
		if math.IsNaN(u) || math.IsInf(u, 0) || math.IsNaN(skew) || math.IsInf(skew, 0) {
			t.Skip()
		}
		u = math.Abs(math.Mod(u, 1))
		skew = math.Abs(math.Mod(skew, 4))
		if skew == 0 {
			skew = defZipf
		}
		checkRank(t, rankScenario(zipfCDF(64+int(keys)%(1<<13), skew)), u)
	})
}

// BenchmarkRank is one op = drawing one rank of the ledger's kv-read
// popularity (2048 keys, skew 0.987) from u the request stream drew: by the
// guide table, and by the binary search it replaced.
func BenchmarkRank(b *testing.B) {
	s := rankScenario(zipfCDF(defKeys, 0.987))
	rng := seeded.New(42)
	us := make([]float64, 4096)
	for i := range us {
		us[i] = rng.Float64()
	}
	b.Run("guide", func(b *testing.B) {
		r := 0
		for i := 0; i < b.N; i++ {
			r += s.rank(us[i%len(us)])
		}
		sink = r
	})
	b.Run("search", func(b *testing.B) {
		r := 0
		for i := 0; i < b.N; i++ {
			r += sort.SearchFloat64s(s.zipfCDF, us[i%len(us)])
		}
		sink = r
	})
}

var sink int
