package workload

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// BenchmarkMutatorIter measures the per-iteration cost of a mutator on the
// sticky Immix runtime — the end-to-end hot path of every experiment:
// allocation, barriers, traversal, and the collections the churn provokes.
// "clean" runs on perfect memory; "faulty" on 10% failed lines with heap
// compensation, so line skipping and failure maps sit on the measured path.
// Iterations run in chunks of the profile's calibrated run length on a
// fresh runtime each — the registry live set (and therefore the minimum
// heap) is calibrated for that length, so a single b.N-long run would
// outgrow the heap — amortizing the setup phase over each chunk.
func BenchmarkMutatorIter(bm *testing.B) {
	bench := func(bm *testing.B, rate float64) {
		p := Pmd()
		heapBytes := 2 * p.MinHeap()
		for remaining := bm.N; remaining > 0; remaining -= p.Iterations {
			chunk := p.Iterations
			if chunk > remaining {
				chunk = remaining
			}
			clock := stats.NewClock(stats.DefaultCosts())
			poolPages := 8 * heapBytes / failmap.PageSize
			var inject *failmap.Map
			if rate > 0 {
				inject = failmap.New(poolPages * failmap.PageSize)
				failmap.GenerateUniform(inject, rate, rand.New(rand.NewSource(99)))
			}
			kern := kernel.New(kernel.Config{PCMPages: poolPages, Inject: inject, Clock: clock})
			v := vm.New(vm.Config{
				HeapBytes:    heapBytes,
				Compensate:   rate > 0,
				Collector:    vm.StickyImmix,
				FailureAware: true,
				Kernel:       kern,
				Clock:        clock,
			})
			if err := p.RunMutators(v, chunk, 1); err != nil {
				bm.Fatal(err)
			}
		}
	}
	bm.Run("clean", func(bm *testing.B) { bench(bm, 0) })
	bm.Run("faulty", func(bm *testing.B) { bench(bm, 0.10) })
}
