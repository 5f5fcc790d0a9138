package vm

import (
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

func TestDiscontiguousArrayRoundTrip(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 2 << 20, Collector: StickyImmix, FailureAware: true,
	}, kernel.Config{})
	const n = 3*ArrayletSize + 100 // a partial tail arraylet
	spine, err := tv.NewDiscontiguousBytes(n)
	if err != nil {
		t.Fatal(err)
	}
	tv.AddRoot(&spine)
	if got := tv.DiscontiguousLen(spine); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
	for _, i := range []int{0, 1, ArrayletSize - 1, ArrayletSize, 2*ArrayletSize + 7, n - 1} {
		tv.SetDiscontiguousByte(spine, i, byte(i%251))
	}
	for _, i := range []int{0, 1, ArrayletSize - 1, ArrayletSize, 2*ArrayletSize + 7, n - 1} {
		if got := tv.DiscontiguousByte(spine, i); got != byte(i%251) {
			t.Fatalf("byte %d = %d, want %d", i, got, byte(i%251))
		}
	}
	// The spine hop charges the arraylet indirection cost.
	if tv.Clock().Count(stats.EvArrayletHop) == 0 {
		t.Fatal("no arraylet hops charged")
	}
}

func TestDiscontiguousArraySurvivesCollection(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true,
	}, kernel.Config{})
	spine, err := tv.NewDiscontiguousBytes(5000)
	if err != nil {
		t.Fatal(err)
	}
	tv.AddRoot(&spine)
	for i := 0; i < 5000; i += 7 {
		tv.SetDiscontiguousByte(tv.readSpine(&spine), i, byte(i))
	}
	// Churn to force collections (the spine and arraylets may move).
	for i := 0; i < 20000; i++ {
		if _, err := tv.NewArray(tv.blob, 64); err != nil {
			t.Fatal(err)
		}
	}
	if tv.GCStats().Collections == 0 {
		t.Fatal("no collections")
	}
	for i := 0; i < 5000; i += 7 {
		if got := tv.DiscontiguousByte(spine, i); got != byte(i) {
			t.Fatalf("byte %d = %d after GC, want %d", i, got, byte(i))
		}
	}
}

// readSpine is a trivial helper making the moving-GC contract explicit in
// the test: always re-read the rooted slot.
func (tv *testVM) readSpine(s *heap.Addr) heap.Addr { return *s }

func TestDiscontiguousArrayCutsPerfectPageDemand(t *testing.T) {
	// 50% failures, no clustering: virtually no perfect pages exist, so
	// contiguous 64 KB arrays live on borrowed DRAM. Discontiguous arrays
	// (line-sized arraylets) live in imperfect Immix memory and need far
	// less perfect memory — the §3.3.3 software alternative.
	cont := newTestVM(t, Config{
		HeapBytes: 4 << 20, Compensate: true, Collector: StickyImmix, FailureAware: true,
	}, withFailures(4<<20, 0.5, 0, 3))
	contKeep := make([]heap.Addr, 0, 4)
	for i := 0; i < 4; i++ {
		a, err := cont.NewArray(cont.blob, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		contKeep = append(contKeep, a)
		cont.AddRoot(&contKeep[len(contKeep)-1])
	}
	disc := newTestVM(t, Config{
		HeapBytes: 4 << 20, Compensate: true, Collector: StickyImmix, FailureAware: true,
	}, withFailures(4<<20, 0.5, 0, 3))
	discKeep := make([]heap.Addr, 0, 4)
	for i := 0; i < 4; i++ {
		a, err := disc.NewDiscontiguousBytes(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		discKeep = append(discKeep, a)
		disc.AddRoot(&discKeep[len(discKeep)-1])
	}
	if cb, db := cont.Kernel().Borrows(), disc.Kernel().Borrows(); db*4 > cb {
		t.Fatalf("discontiguous arrays should cut perfect-page demand: contiguous=%d disc=%d", cb, db)
	}
	disc.SetDiscontiguousByte(discKeep[3], 60000, 9)
	if disc.DiscontiguousByte(discKeep[3], 60000) != 9 {
		t.Fatal("data lost")
	}
}

func TestDiscontiguousBoundsChecks(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true,
	}, kernel.Config{})
	spine, err := tv.NewDiscontiguousBytes(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 100, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %d did not panic", i)
				}
			}()
			tv.DiscontiguousByte(spine, i)
		}()
	}
}

func TestDiscontiguousZeroLength(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true,
	}, kernel.Config{})
	spine, err := tv.NewDiscontiguousBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if tv.DiscontiguousLen(spine) != 0 {
		t.Fatal("zero-length array has non-zero length")
	}
}
