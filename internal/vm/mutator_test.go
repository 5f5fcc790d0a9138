package vm

import (
	"strings"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

// Allocation through Mutator0 must behave exactly like the VM's plain entry
// points: same context, same retry path. The plain entry points run as the
// VM's own primary mutator, which shares context 0 with Mutator0 but charges
// the shared clock. On the threaded engine attaching Mutator0 rebinds
// context 0 to Mutator0's shard, so from then on a plain allocation charges
// its bytes to that shard while a plain store still charges the shared
// clock; on the baton engine the two clocks are one.
func TestMutator0SharesContextWithVM(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix, Threaded: eng.threaded}, kernel.Config{})
			m := tv.Mutator0()
			if m.ID() != 0 || tv.Mutator0() != m {
				t.Fatal("Mutator0 is not the stable primary mutator")
			}
			shard, shared := m.Clock(), tv.Clock()
			if (shard != shared) != eng.threaded {
				t.Fatalf("Mutator0 charges a shard of its own: %v, want %v", shard != shared, eng.threaded)
			}
			m.Unpark()
			a := m.MustNew(tv.node)
			bytes, sharedBytes := shard.Count(stats.EvAllocBytes), shared.Count(stats.EvAllocBytes)
			b := tv.MustNew(tv.node)
			if got, want := shard.Count(stats.EvAllocBytes)-bytes, uint64(heap.FixedSize(tv.node)); got != want {
				t.Fatalf("a plain allocation charged %d bytes to mutator 0's clock, want %d", got, want)
			}
			if eng.threaded && shared.Count(stats.EvAllocBytes) != sharedBytes {
				t.Fatal("a plain allocation charged the shared clock, not mutator 0's shard")
			}
			m.WriteWord(a, nodeVal, 7)
			writes, shardWrites := shared.Count(stats.EvFieldWrite), shard.Count(stats.EvFieldWrite)
			tv.WriteWord(b, nodeVal, 8)
			if shared.Count(stats.EvFieldWrite) != writes+1 {
				t.Fatal("a plain store did not charge the shared clock")
			}
			if eng.threaded && shard.Count(stats.EvFieldWrite) != shardWrites {
				t.Fatal("a plain store charged mutator 0's shard")
			}
			if m.ReadWord(a, nodeVal) != 7 || m.ReadWord(b, nodeVal) != 8 {
				t.Fatal("mutator and VM see different heaps")
			}
			m.Park()
		})
	}
}

// Attached mutators get consecutive ids paired with their own Immix
// contexts, and interleaved allocation with collections keeps every
// mutator's data intact.
func TestAttachedMutatorsAllocateIndependently(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: Immix}, kernel.Config{})
	muts := []*Mutator{tv.Mutator0(), tv.AttachMutator(), tv.AttachMutator()}
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
	m0, m1 := tv.Mutator0(), tv.AttachMutator()
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
	m0, m1 := tv.Mutator0(), tv.AttachMutator()
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
