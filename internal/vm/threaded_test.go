package vm

import (
	"fmt"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

// TestThreadedMutatorsSurviveGC runs real goroutine mutators under enough
// allocation pressure to force collections (including evacuating full
// collections) and checks every mutator's live list survives intact.
func TestThreadedMutatorsSurviveGC(t *testing.T) {
	for _, kind := range []CollectorKind{Immix, StickyImmix} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/tw%d", kind, workers), func(t *testing.T) {
				tv := newTestVM(t, Config{
					HeapBytes: 512 << 10, Collector: kind, FailureAware: true,
					TraceWorkers: workers, Threaded: true,
				}, kernel.Config{})
				const muts, nodes, churn = 4, 200, 3000
				ms := tv.Attach(muts)
				heads := make([]heap.Addr, muts)
				tasks := make([]func() error, muts)
				for i := 0; i < muts; i++ {
					i := i
					m := ms[i]
					tasks[i] = func() error {
						m.AddRoot(&heads[i])
						for j := 0; j < nodes; j++ {
							a, err := m.New(tv.node)
							if err != nil {
								return err
							}
							m.WriteWord(a, nodeVal, uint64(i*nodes+j))
							m.WriteRef(a, nodeNext, heads[i])
							heads[i] = a
						}
						// Churn garbage to force collections while everyone
						// else is mutating.
						var keep heap.Addr
						m.AddRoot(&keep)
						for j := 0; j < churn; j++ {
							a, err := m.NewArray(tv.blob, 64+j%256)
							if err != nil {
								m.RemoveRoot(&keep)
								return err
							}
							keep = a
							m.Safepoint()
						}
						m.RemoveRoot(&keep)
						return nil
					}
				}
				if err := tv.RunThreads(tasks...); err != nil {
					t.Fatalf("RunThreads: %v", err)
				}
				if tv.OOM() {
					t.Fatal("unexpected OOM")
				}
				if tv.GCStats().Collections == 0 {
					t.Fatal("expected at least one collection under churn")
				}
				for i := 0; i < muts; i++ {
					a := heads[i]
					for j := nodes - 1; j >= 0; j-- {
						if a == 0 {
							t.Fatalf("mutator %d: list truncated at %d", i, j)
						}
						if got := tv.ReadWord(a, nodeVal); got != uint64(i*nodes+j) {
							t.Fatalf("mutator %d node %d: got %d", i, j, got)
						}
						a = tv.ReadRef(a, nodeNext)
					}
					if a != 0 {
						t.Fatalf("mutator %d: list longer than built", i)
					}
				}
				// A post-run full collection with no live tasks must work
				// (the world is trivially stopped).
				tv.Collect(true)
			})
		}
	}
}

// TestThreadedRequiresImmix checks the engine gate: mark-sweep plans have
// no threaded claim protocol.
func TestThreadedRequiresImmix(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for threaded mark-sweep")
		}
	}()
	clock := stats.NewClock(stats.DefaultCosts())
	kern := kernel.New(kernel.Config{PCMPages: 512, Clock: clock})
	New(Config{
		HeapBytes: 256 << 10, Collector: MarkSweep, Threaded: true,
		Kernel: kern, Clock: clock,
	})
}

// TestThreadedClockMerge checks that mutator shard time folds into the
// shared clock by critical path: after RunThreads the shared clock has
// advanced by at least the largest shard and holds the summed counts.
func TestThreadedClockMerge(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 512 << 10, Collector: StickyImmix, FailureAware: true, TraceWorkers: 2,
		Threaded: true,
	}, kernel.Config{})
	const muts = 3
	ms := tv.Attach(muts)
	tasks := make([]func() error, muts)
	for i := 0; i < muts; i++ {
		m := ms[i]
		n := 100 * (i + 1)
		tasks[i] = func() error {
			m.Work(n)
			return nil
		}
	}
	if err := tv.RunThreads(tasks...); err != nil {
		t.Fatal(err)
	}
	wantOps := uint64(100 + 200 + 300)
	if got := tv.Clock().Count(stats.EvMutatorOp); got < wantOps {
		t.Fatalf("merged mutator.op count = %d, want >= %d", got, wantOps)
	}
	// Critical path: at least the slowest mutator's time (300 ops), less
	// than the serialized sum would require if nothing else charged.
	minTime := stats.Cycles(300) * tv.Clock().Costs()[stats.EvMutatorOp]
	if tv.Clock().Now() < minTime {
		t.Fatalf("merged time %d < critical path %d", tv.Clock().Now(), minTime)
	}
}

// TestThreadedOOMIsDNF checks the threaded slow path surfaces
// ErrOutOfMemory (a DNF) rather than deadlocking when the heap is too
// small for the live set.
func TestThreadedOOMIsDNF(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 128 << 10, Collector: Immix, FailureAware: true, TraceWorkers: 2, Threaded: true,
	}, kernel.Config{})
	const muts = 2
	ms := tv.Attach(muts)
	roots := make([][]heap.Addr, muts)
	errs := make([]error, muts)
	tasks := make([]func() error, muts)
	for i := 0; i < muts; i++ {
		i := i
		m := ms[i]
		tasks[i] = func() error {
			for {
				a, err := m.NewArray(tv.blob, 1<<10)
				if err != nil {
					errs[i] = err
					return nil // keep the other task's error visible too
				}
				roots[i] = append(roots[i], a)
				m.AddRoot(&roots[i][len(roots[i])-1])
				m.Safepoint()
			}
		}
	}
	if err := tv.RunThreads(tasks...); err != nil {
		t.Fatal(err)
	}
	if !tv.OOM() {
		t.Fatal("expected OOM")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("mutator %d: expected ErrOutOfMemory", i)
		}
	}
}
