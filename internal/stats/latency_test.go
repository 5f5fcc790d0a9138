package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactQuantile is the sorted-slice reference the histogram is checked
// against: the ceil(q*n)-th smallest value.
func exactQuantile(sorted []Cycles, q float64) Cycles {
	n := len(sorted)
	target := int(q * float64(n))
	if float64(target) < q*float64(n) {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	return sorted[target-1]
}

func TestHistogramQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() Cycles{
		"uniform": func() Cycles { return Cycles(rng.Intn(1_000_000)) },
		"exp":     func() Cycles { return Cycles(rng.ExpFloat64() * 50_000) },
		"bimodal": func() Cycles {
			if rng.Intn(100) < 95 {
				return Cycles(100 + rng.Intn(400))
			}
			return Cycles(1_000_000 + rng.Intn(9_000_000))
		},
		"small": func() Cycles { return Cycles(rng.Intn(24)) },
	}
	for name, draw := range dists {
		var h Histogram
		vals := make([]Cycles, 0, 10_000)
		for i := 0; i < 10_000; i++ {
			v := draw()
			h.Record(v)
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := exactQuantile(vals, q)
			got := h.Quantile(q)
			if got < exact {
				t.Errorf("%s q=%g: hist %d < exact %d", name, q, got, exact)
			}
			// Log-bucket upper bounds overshoot by at most one sub-bucket
			// width: 1/32 of the value (exact below the linear region).
			limit := exact + exact/latSubCount + 1
			if got > limit {
				t.Errorf("%s q=%g: hist %d > bound %d (exact %d)", name, q, got, limit, exact)
			}
		}
		if h.Max() != vals[len(vals)-1] {
			t.Errorf("%s: max %d != %d", name, h.Max(), vals[len(vals)-1])
		}
		if h.Quantile(1) != h.Max() {
			t.Errorf("%s: q=1 %d != max %d", name, h.Quantile(1), h.Max())
		}
	}
}

func TestHistogramBucketsContinuousAndMonotone(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<14; v++ {
		b := latBucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucket index jumps at v=%d: %d -> %d", v, prev, b)
		}
		prev = b
		if ub := latBucketMax(b); Cycles(v) > ub {
			t.Fatalf("v=%d above its bucket %d upper bound %d", v, b, ub)
		}
		if b > 0 {
			if lbPrev := latBucketMax(b - 1); Cycles(v) <= lbPrev {
				t.Fatalf("v=%d at or below bucket %d's predecessor bound %d", v, b, lbPrev)
			}
		}
	}
	// The extremes must round-trip without overflow.
	if b := latBucketOf(1<<64 - 1); b != latBuckets-1 {
		t.Fatalf("max uint64 lands in bucket %d, want %d", b, latBuckets-1)
	}
	if ub := latBucketMax(latBuckets - 1); ub != Cycles(1<<64-1) {
		t.Fatalf("last bucket upper bound %d, want max uint64", ub)
	}
}

// TestLatencyShardMergeDeterministic sharding one observation stream
// round-robin across k shards must reproduce the single-shard report for
// every k: merging is count addition, insensitive to which mutator saw
// which op.
func TestLatencyShardMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type op struct{ total, gc, stall Cycles }
	ops := make([]op, 5000)
	for i := range ops {
		o := op{total: Cycles(rng.Intn(1_000_000))}
		if rng.Intn(10) == 0 {
			o.gc = Cycles(rng.Intn(int(o.total) + 1))
		}
		if rng.Intn(7) == 0 {
			o.stall = Cycles(rng.Intn(10_000))
		}
		ops[i] = o
	}
	ref := NewLatencyRecorder(1)
	for _, o := range ops {
		ref.Shard(0).RecordOp(o.total, o.gc, o.stall)
	}
	want := ref.Report()
	for _, k := range []int{2, 3, 8} {
		r := NewLatencyRecorder(k)
		for i, o := range ops {
			r.Shard(i%k).RecordOp(o.total, o.gc, o.stall)
		}
		if got := r.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: merged report differs from single-shard reference:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must digest to zeros")
	}
	s := Summarize(&h)
	if s != (QuantileSummary{}) {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestStallCyclesWeighting(t *testing.T) {
	c := NewClock(DefaultCosts())
	c.Charge(EvLineSkip, 10)
	c.Charge(EvFailBufStall, 2)
	c.Charge(EvMutatorOp, 1000) // not a stall event
	want := 10*c.Costs()[EvLineSkip] + 2*c.Costs()[EvFailBufStall]
	if got := c.StallCycles(); got != want {
		t.Fatalf("StallCycles %d, want %d", got, want)
	}
}
