package vm

import (
	"fmt"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
)

// TestThreadedConcurrentMarkChurn runs parallel mutators against 1, 2 and 4
// concurrent marker goroutines with StrictSATB on: concurrent cycles must
// run, every mutator's live list must survive them, and every final mark
// must pass the tri-color closure check.
func TestThreadedConcurrentMarkChurn(t *testing.T) {
	for _, markers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("markers%d", markers), func(t *testing.T) {
			tv := newTestVM(t, Config{
				HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Threaded: true,
				TraceWorkers: markers, PauseBudget: 1000, StrictSATB: true,
			}, kernel.Config{})
			const muts, nodes, churn = 4, 150, 4000
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
					for j := 0; j < churn; j++ {
						if _, err := m.NewArray(tv.blob, 64+j%256); err != nil {
							return err
						}
						m.Safepoint()
					}
					return nil
				}
			}
			if err := tv.RunThreads(tasks...); err != nil {
				t.Fatalf("RunThreads: %v", err)
			}
			if tv.OOM() {
				t.Fatal("unexpected OOM")
			}
			if tv.GCStats().ConcurrentCycles == 0 {
				t.Fatal("no concurrent marking cycles ran under churn")
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
			}
			// A post-run STW full collection must still work and still
			// defragment (evacuate flags survive incremental sweeps).
			tv.Collect(true)
		})
	}
}

// TestThreadedConcurrentSATBHiding is the adversarial tri-color scenario on
// the threaded engine: mutators repeatedly copy the only pointer to a live
// object into another (possibly already-scanned) object and delete the
// original, racing the concurrent markers the whole time. StrictSATB turns
// any hole into a panic at the final mark; the payload check proves the
// hidden objects survived.
func TestThreadedConcurrentSATBHiding(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Threaded: true,
		TraceWorkers: 2, PauseBudget: 1000, StrictSATB: true,
	}, kernel.Config{})
	const muts, rounds = 2, 300
	ms := tv.Attach(muts)
	type cell struct{ from, to, hidden heap.Addr }
	cells := make([]cell, muts)
	tasks := make([]func() error, muts)
	for i := 0; i < muts; i++ {
		i := i
		m := ms[i]
		tasks[i] = func() error {
			m.AddRoot(&cells[i].from)
			m.AddRoot(&cells[i].to)
			for r := 0; r < rounds; r++ {
				from, err := m.New(tv.node)
				if err != nil {
					return err
				}
				cells[i].from = from
				to, err := m.New(tv.node)
				if err != nil {
					return err
				}
				cells[i].to = to
				hidden, err := m.New(tv.node)
				if err != nil {
					return err
				}
				m.WriteWord(hidden, nodeVal, 0xFACE0000+uint64(i*rounds+r))
				m.WriteRef(from, nodeNext, hidden)
				// Churn with a round-varying stride so the hide lands at a
				// different point of the concurrent cycle each time.
				for j := 0; j < 30+r%61; j++ {
					if _, err := m.NewArray(tv.blob, 96); err != nil {
						return err
					}
				}
				// The hide: move the only pointer, delete the original.
				h := m.ReadRef(cells[i].from, nodeNext)
				m.WriteRef(cells[i].to, nodeNext, h)
				m.WriteRef(cells[i].from, nodeNext, 0)
				// More churn so a final mark can run with the hide in place.
				for j := 0; j < 30; j++ {
					if _, err := m.NewArray(tv.blob, 96); err != nil {
						return err
					}
				}
				got := m.ReadRef(cells[i].to, nodeNext)
				if got == 0 {
					return fmt.Errorf("mutator %d round %d: hidden object lost", i, r)
				}
				if v := m.ReadWord(got, nodeVal); v != 0xFACE0000+uint64(i*rounds+r) {
					return fmt.Errorf("mutator %d round %d: hidden payload %#x", i, r, v)
				}
			}
			return nil
		}
	}
	if err := tv.RunThreads(tasks...); err != nil {
		t.Fatalf("RunThreads: %v", err)
	}
	if tv.GCStats().ConcurrentCycles == 0 {
		t.Fatal("adversarial run never entered a concurrent cycle")
	}
	tv.Collect(true)
}
