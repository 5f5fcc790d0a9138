package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockChargeAdvancesTime(t *testing.T) {
	var costs CostTable
	costs[EvMutatorOp] = 4
	costs[EvGCCycle] = 1000
	c := NewClock(costs)

	c.Charge(EvMutatorOp, 10)
	if got, want := c.Now(), Cycles(40); got != want {
		t.Fatalf("Now() = %d, want %d", got, want)
	}
	c.Charge1(EvGCCycle)
	if got, want := c.Now(), Cycles(1040); got != want {
		t.Fatalf("Now() = %d, want %d", got, want)
	}
	if got := c.Count(EvMutatorOp); got != 10 {
		t.Fatalf("Count(EvMutatorOp) = %d, want 10", got)
	}
	if got := c.Count(EvGCCycle); got != 1 {
		t.Fatalf("Count(EvGCCycle) = %d, want 1", got)
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock(DefaultCosts())
	c.Charge(EvAllocBytes, 12345)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Now() after Reset = %d, want 0", c.Now())
	}
	if c.Count(EvAllocBytes) != 0 {
		t.Fatalf("Count after Reset = %d, want 0", c.Count(EvAllocBytes))
	}
}

func TestClockSnapshotCompleteAndOrdered(t *testing.T) {
	c := NewClock(DefaultCosts())
	c.Charge(EvLineSkip, 3)
	snap := c.Snapshot()
	if len(snap) != NumEvents {
		t.Fatalf("Snapshot has %d entries, want all %d events", len(snap), NumEvents)
	}
	for i, ctr := range snap {
		if want := Event(i).String(); ctr.Event != want {
			t.Fatalf("Snapshot[%d].Event = %q, want %q (declaration order)", i, ctr.Event, want)
		}
		want := uint64(0)
		if Event(i) == EvLineSkip {
			want = 3
		}
		if ctr.Count != want {
			t.Fatalf("Snapshot[%d] (%s) = %d, want %d", i, ctr.Event, ctr.Count, want)
		}
	}
}

func TestEventStringsDistinct(t *testing.T) {
	seen := make(map[string]Event)
	for e := Event(0); e < Event(NumEvents); e++ {
		s := e.String()
		if s == "" {
			t.Fatalf("event %d has empty name", e)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("events %d and %d share name %q", prev, e, s)
		}
		seen[s] = e
	}
	if Event(999).String() != "event(999)" {
		t.Fatalf("out-of-range event name = %q", Event(999).String())
	}
}

// Property: charging is linear — charging n then m equals charging n+m.
func TestClockChargeLinearity(t *testing.T) {
	f := func(n, m uint16) bool {
		costs := DefaultCosts()
		a, b := NewClock(costs), NewClock(costs)
		a.Charge(EvObjectMark, uint64(n))
		a.Charge(EvObjectMark, uint64(m))
		b.Charge(EvObjectMark, uint64(n)+uint64(m))
		return a.Now() == b.Now() && a.Count(EvObjectMark) == b.Count(EvObjectMark)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean = %g, want 4", got)
	}
	// Non-positive entries are skipped (DNF configurations).
	got = GeoMean([]float64{2, 0, 8})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean with zero = %g, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatalf("GeoMean(nil) = %g, want 0", GeoMean(nil))
	}
}

func TestMeanMedianMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); math.Abs(got-2.8) > 1e-12 {
		t.Fatalf("Mean = %g, want 2.8", got)
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("Median = %g, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Median even = %g, want 2.5", got)
	}
	if got := Min(xs); got != 1 {
		t.Fatalf("Min = %g, want 1", got)
	}
	if got := Max(xs); got != 5 {
		t.Fatalf("Max = %g, want 5", got)
	}
}

func TestCI95ShrinksWithSamples(t *testing.T) {
	small := []float64{10, 12, 8, 11, 9}
	big := append(append([]float64(nil), small...), small...)
	big = append(big, small...)
	if CI95(big) >= CI95(small) {
		t.Fatalf("CI95 did not shrink: %g samples=%d vs %g samples=%d",
			CI95(big), len(big), CI95(small), len(small))
	}
	if CI95([]float64{5}) != 0 {
		t.Fatalf("CI95 of one sample should be 0")
	}
}

// Property: geomean of a normalized vector against itself is 1.
func TestGeoMeanSelfNormalization(t *testing.T) {
	f := func(raw []uint8) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1) // strictly positive
		}
		if len(xs) == 0 {
			return true
		}
		var norm []float64
		for _, x := range xs {
			norm = append(norm, x/x)
		}
		return math.Abs(GeoMean(norm)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var clockSink Cycles

// BenchmarkClock prices the ownership rule on the clock: Charge and Now on a
// single-owner clock (the baton engine's, and every mutator's private shard)
// and on one SetConcurrent has shared.
func BenchmarkClock(b *testing.B) {
	for _, mode := range []string{"single-owner", "shared"} {
		c := NewClock(DefaultCosts())
		if mode == "shared" {
			c.SetConcurrent()
		}
		b.Run(mode+"/Charge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Charge(EvFieldRead, 1)
			}
		})
		b.Run(mode+"/Now", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clockSink += c.Now()
			}
		})
	}
}
