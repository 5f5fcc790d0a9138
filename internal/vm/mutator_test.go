package vm

import (
	"strings"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

// Mutator0 is the VM's primary mutator, and every mutator follows one clock
// rule: outside a batch it charges the shared clock; inside a threaded
// batch it charges a private shard, which the join merges into the shared
// clock before pointing the mutator and its context back at it. Attaching
// mutator 0 registers no second allocation-site register.
func TestRunMutatorsOneHandleOneClock(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix, WriteThrough: true, Threaded: eng.threaded}, kernel.Config{})
			roots := func() (n int) {
				tv.Roots().Each(func(*heap.Addr) { n++ })
				return n
			}
			before := roots()
			m := tv.Mutator0()
			if m != &tv.primary || m.ID() != 0 || tv.Mutator0() != m || tv.Attach(1)[0] != m || tv.Mutators() != 1 {
				t.Fatal("Mutator0 is not the VM's primary mutator")
			}
			if roots() != before {
				t.Fatalf("attaching mutator 0 registered %d roots", roots()-before)
			}
			m1 := tv.Attach(2)[1]
			if roots() != before+1 {
				t.Fatalf("attaching mutator 1 registered %d roots, want 1", roots()-before)
			}
			shared := tv.Clock()
			node := uint64(heap.FixedSize(tv.node))
			// Outside a batch, plain and mutator-0 calls charge the shared clock.
			outside := func() {
				for _, mm := range []*Mutator{m, m1} {
					if mm.Clock() != shared {
						t.Fatalf("mutator %d charges a shard outside a batch", mm.ID())
					}
				}
				m.Unpark()
				defer m.Park()
				bytes, writes := shared.Count(stats.EvAllocBytes), shared.Count(stats.EvFieldWrite)
				a := m.MustNew(tv.node)
				b := tv.MustNew(tv.node)
				m.WriteWord(a, nodeVal, 7)
				tv.WriteWord(b, nodeVal, 8)
				if got := shared.Count(stats.EvAllocBytes) - bytes; got != 2*node {
					t.Fatalf("two allocations charged %d bytes to the shared clock, want %d", got, 2*node)
				}
				if got := shared.Count(stats.EvFieldWrite) - writes; got != 2 {
					t.Fatalf("two stores charged %d writes to the shared clock, want 2", got)
				}
			}
			outside()
			// Inside a batch, mutator 0 (the plain entry points included)
			// charges its clock: a shard on the threaded engine.
			bytes, writes := shared.Count(stats.EvAllocBytes), shared.Count(stats.EvFieldWrite)
			err := tv.RunMutators(2, func(mm *Mutator, yield func()) error {
				if mm.ID() != 0 {
					return nil
				}
				clk := mm.Clock()
				if (clk != shared) != eng.threaded {
					t.Errorf("mutator 0 charges a shard in a batch: %v, want %v", clk != shared, eng.threaded)
				}
				if mm != m {
					t.Error("the batch's mutator 0 is not the primary")
				}
				shardBytes, shardWrites := clk.Count(stats.EvAllocBytes), clk.Count(stats.EvFieldWrite)
				a := mm.MustNew(tv.node)
				b := tv.MustNew(tv.node)
				mm.WriteWord(a, nodeVal, 7)
				tv.WriteWord(b, nodeVal, 8)
				if got := clk.Count(stats.EvAllocBytes) - shardBytes; got != 2*node {
					t.Errorf("two allocations charged %d bytes to mutator 0's clock, want %d", got, 2*node)
				}
				if got := clk.Count(stats.EvFieldWrite) - shardWrites; got != 2 {
					t.Errorf("two stores charged %d writes to mutator 0's clock, want 2", got)
				}
				if eng.threaded && (shared.Count(stats.EvAllocBytes) != bytes || shared.Count(stats.EvFieldWrite) != writes) {
					t.Error("mutator 0 charged the shared clock inside a threaded batch")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The join brought the counts to the shared clock...
			if got := shared.Count(stats.EvAllocBytes) - bytes; got != 2*node {
				t.Fatalf("the batch's allocations reached the shared clock as %d bytes, want %d", got, 2*node)
			}
			if got := shared.Count(stats.EvFieldWrite) - writes; got != 2 {
				t.Fatalf("the batch's stores reached the shared clock as %d writes, want 2", got)
			}
			// ...and put every mutator and its context back on it.
			outside()
		})
	}
}

// Attached mutators get consecutive ids paired with their own Immix
// contexts, and interleaved allocation with collections keeps every
// mutator's data intact.
func TestAttachedMutatorsAllocateIndependently(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix}, kernel.Config{})
	muts := tv.Attach(3)
	if tv.Mutators() != 3 {
		t.Fatalf("Mutators() = %d, want 3", tv.Mutators())
	}
	const chain = 400
	heads := make([]heap.Addr, len(muts))
	for i := range heads {
		tv.AddRoot(&heads[i])
	}
	// Each mutator builds its own live chain...
	for i := 0; i < chain; i++ {
		for mi, m := range muts {
			if m.ID() != mi {
				t.Fatalf("mutator %d has id %d", mi, m.ID())
			}
			m.Unpark()
			a := m.MustNew(tv.node)
			m.WriteWord(a, nodeVal, uint64(i*3+mi))
			m.WriteRef(a, nodeNext, heads[mi])
			heads[mi] = a
			m.Park()
		}
	}
	// ...then churns garbage well past the heap size, interleaved.
	for i := 0; i < 6000; i++ {
		for _, m := range muts {
			m.Unpark()
			m.MustNewArray(tv.blob, 64)
			m.Park()
		}
	}
	if tv.GCStats().Collections == 0 {
		t.Fatal("no collections during multi-mutator churn")
	}
	for mi := range muts {
		a := heads[mi]
		for i := chain - 1; i >= 0; i-- {
			if a == 0 {
				t.Fatalf("mutator %d chain truncated at %d", mi, i)
			}
			if got := tv.ReadWord(a, nodeVal); got != uint64(i*3+mi) {
				t.Fatalf("mutator %d node %d = %d", mi, i, got)
			}
			a = tv.ReadRef(a, nodeNext)
		}
	}
}

// A collection that starts while another mutator is unparked violates the
// stop-the-world protocol and must panic loudly rather than trace a heap
// someone is still bumping into.
func TestCollectPanicsOutsideSafepoint(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix}, kernel.Config{})
	ms := tv.Attach(2)
	m0, m1 := ms[0], ms[1]
	m1.Unpark() // m1 claims to be running...
	m0.Unpark() // ...and so does m0, which will trigger the collection
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("collection proceeded with a mutator outside its safepoint")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "safepoint") {
			t.Fatalf("recovered %v, want a safepoint violation", r)
		}
	}()
	tv.Collect(true)
}

// The same collection is fine once every other mutator is parked.
func TestCollectAllowedAtSafepoint(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix}, kernel.Config{})
	ms := tv.Attach(2)
	m0, m1 := ms[0], ms[1]
	m1.Unpark()
	m1.Park()
	m0.Unpark()
	var keep heap.Addr
	tv.AddRoot(&keep)
	keep = m0.MustNew(tv.node)
	m0.WriteWord(keep, nodeVal, 99)
	tv.Collect(true)
	if tv.ReadWord(keep, nodeVal) != 99 {
		t.Fatal("object lost across safepoint collection")
	}
	m0.Park()
}
