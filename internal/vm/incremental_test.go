package vm

import (
	"fmt"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

// TestIncrementalMarkChurn churns several heaps' worth of allocation with a
// tight pause budget and StrictSATB on: incremental cycles must actually
// run (bounded increments recorded), live data must survive, and every
// final mark must pass the tri-color closure check.
func TestIncrementalMarkChurn(t *testing.T) {
	for _, budget := range []int{1_000_000, 100_000, 10_000} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			tv := newTestVM(t, Config{
				HeapBytes: 1 << 20, Collector: StickyImmix, PauseBudget: budget, StrictSATB: true,
			}, kernel.Config{})
			head := tv.buildList(t, 200)
			tv.AddRoot(&head)
			for i := 0; i < 30000; i++ {
				if _, err := tv.NewArray(tv.blob, 64); err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
			}
			tv.FinishMark()
			tv.checkList(t, head, 200)
			st := tv.GCStats()
			if st.IncrementalCycles == 0 {
				t.Fatal("no incremental cycles ran")
			}
			if st.MarkIncrements == 0 {
				t.Fatal("no bounded mark increments recorded")
			}
			if st.PauseMarkHist.Count() == 0 {
				t.Fatal("no increment pauses recorded")
			}
		})
	}
}

// TestIncrementalMarkDeterministic runs the identical churn twice with the
// same pause budget and asserts the baton engine's defining property holds
// through incremental marking: simulated time, collection counts and
// increment counts are identical across repeats.
func TestIncrementalMarkDeterministic(t *testing.T) {
	run := func() (stats.Cycles, int, int) {
		tv := newTestVM(t, Config{
			HeapBytes: 1 << 20, Collector: StickyImmix, PauseBudget: 50_000, StrictSATB: true,
		}, kernel.Config{})
		head := tv.buildList(t, 100)
		tv.AddRoot(&head)
		for i := 0; i < 20000; i++ {
			if _, err := tv.NewArray(tv.blob, 64+i%128); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		tv.FinishMark()
		tv.checkList(t, head, 100)
		st := tv.GCStats()
		return tv.Clock().Now(), st.Collections, st.MarkIncrements
	}
	now1, coll1, inc1 := run()
	now2, coll2, inc2 := run()
	if now1 != now2 || coll1 != coll2 || inc1 != inc2 {
		t.Fatalf("incremental baton run diverged: cycles %d vs %d, collections %d vs %d, increments %d vs %d",
			now1, now2, coll1, coll2, inc1, inc2)
	}
}

// TestIncrementalSATBHiding is the adversarial tri-color scenario: while a
// marking cycle is mid-flight, the mutator copies the only pointer to a
// live object into an object the trace may already have scanned (black)
// and deletes the original reference. Without the deletion barrier the
// object would be collected while reachable; StrictSATB turns any such
// hole into a panic at the final mark, and the value check proves the
// hidden object survived. The hide runs at many different points within
// the cycle to exercise increments before, during and after the victim
// slots are scanned.
func TestIncrementalSATBHiding(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, PauseBudget: 5_000, StrictSATB: true,
	}, kernel.Config{})
	const hides = 400
	type slotPair struct{ from, to heap.Addr }
	var pairs []slotPair
	var fromRoot, toRoot heap.Addr
	tv.AddRoot(&fromRoot)
	tv.AddRoot(&toRoot)
	for i := 0; i < hides; i++ {
		// from.next -> hidden; to.next starts nil. The hidden object's only
		// reference is from.next.
		from := tv.MustNew(tv.node)
		fromRoot = from
		to := tv.MustNew(tv.node)
		toRoot = to
		hidden := tv.MustNew(tv.node)
		tv.WriteWord(hidden, nodeVal, 0xBEEF0000+uint64(i))
		tv.WriteRef(from, nodeNext, hidden)
		pairs = append(pairs, slotPair{from, to})
		// Churn to push the collector into (and through) marking cycles at a
		// different phase offset each iteration.
		for j := 0; j < 40+i%97; j++ {
			tv.MustNewArray(tv.blob, 128)
		}
		// The hide: copy the only pointer behind 'to' (possibly black), then
		// delete the original. The deletion barrier must shade 'hidden'.
		from, to = pairs[len(pairs)-1].from, pairs[len(pairs)-1].to
		h := tv.ReadRef(from, nodeNext)
		tv.WriteRef(to, nodeNext, h)
		tv.WriteRef(from, nodeNext, 0)
		pairs[len(pairs)-1] = slotPair{from, to}
		// Keep only the last few pairs alive through roots; older ones die.
		if len(pairs) > 8 {
			pairs = pairs[1:]
		}
		fromRoot, toRoot = pairs[0].from, pairs[0].to
		// Re-root every live pair through a fresh chain so the collector can
		// still reach them (roots only hold the oldest; chain the rest).
		for k := 1; k < len(pairs); k++ {
			tv.WriteRef(pairs[k-1].from, nodeNext, pairs[k].from)
			tv.WriteRef(pairs[k-1].to, nodeNext, pairs[k].to)
		}
	}
	tv.FinishMark()
	tv.Collect(true)
	if st := tv.GCStats(); st.IncrementalCycles == 0 {
		t.Fatal("adversarial run never entered an incremental cycle")
	}
}

// TestIncrementalHiddenValueSurvives pins one precise interleaving: begin a
// cycle, let increments run until the destination object is plausibly
// scanned, then hide and verify the payload after the cycle completes.
func TestIncrementalHiddenValueSurvives(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 1 << 20, Collector: StickyImmix, PauseBudget: 2_000, StrictSATB: true,
	}, kernel.Config{})
	dst := tv.MustNew(tv.node)
	src := tv.MustNew(tv.node)
	hidden := tv.MustNew(tv.node)
	tv.AddRoot(&dst)
	tv.AddRoot(&src)
	tv.WriteWord(hidden, nodeVal, 0xCAFE)
	tv.WriteRef(src, nodeNext, hidden)
	// Drive allocation until a marking cycle starts, then a few increments in.
	for !tv.Immix().Marking() {
		tv.MustNewArray(tv.blob, 256)
	}
	for i := 0; i < 5 && tv.Immix().Marking(); i++ {
		tv.MustNewArray(tv.blob, 256)
	}
	// Hide: the only pointer moves behind dst; src's slot is cleared.
	h := tv.ReadRef(src, nodeNext)
	tv.WriteRef(dst, nodeNext, h)
	tv.WriteRef(src, nodeNext, 0)
	// Finish the cycle and force a full collection: a SATB hole would
	// reclaim hidden and the read below would see freed memory.
	tv.FinishMark()
	tv.Collect(true)
	got := tv.ReadRef(dst, nodeNext)
	if got == 0 {
		t.Fatal("hidden object lost: dst.next is nil after cycle")
	}
	if v := tv.ReadWord(got, nodeVal); v != 0xCAFE {
		t.Fatalf("hidden object corrupted: val=%#x", v)
	}
}

// TestIncrementalWriteStormBounded floods the deletion barrier with more
// distinct overwritten referents than the modbuf cap while marking is
// active: the SATB buffer must not grow without bound (the cap blackens
// referents in place instead), which is the write-storm-cannot-OOM
// regression the cap exists for.
func TestIncrementalWriteStormBounded(t *testing.T) {
	tv := newTestVM(t, Config{
		HeapBytes: 4 << 20, Collector: StickyImmix, PauseBudget: 3_000, StrictSATB: true,
	}, kernel.Config{})
	const n = 6000
	arr := tv.MustNewArray(tv.RefArrayType("nodearr"), n)
	tv.AddRoot(&arr)
	nodes := make([]heap.Addr, n)
	for i := range nodes {
		nodes[i] = tv.MustNew(tv.node)
		tv.WriteWord(nodes[i], nodeVal, uint64(i))
		tv.SetArrayRef(arr, i, nodes[i])
	}
	nodes = nil
	// Enter a marking cycle, then storm: overwrite every slot (shading n
	// distinct referents) without a single allocation in between, so no
	// increment can drain the buffer mid-storm.
	fresh := tv.MustNew(tv.node)
	tv.AddRoot(&fresh)
	for !tv.Immix().Marking() {
		tv.MustNewArray(tv.blob, 512)
	}
	for i := 0; i < n; i++ {
		tv.SetArrayRef(arr, i, fresh)
	}
	tv.FinishMark()
	tv.Collect(true)
	st := tv.GCStats()
	if st.ForcedModbufDrains == 0 {
		t.Fatalf("storm of %d distinct referents never hit the cap (high water %d)", n, st.ModbufHighWater)
	}
	if st.ModbufHighWater > 4096 {
		t.Fatalf("SATB/modbuf high water %d exceeds the cap", st.ModbufHighWater)
	}
}

// RefArrayType registers (once) and returns a reference-array type for
// tests that need dense outgoing edges.
func (tv *testVM) RefArrayType(name string) *heap.Type {
	return tv.RegisterType(&heap.Type{Name: name, Kind: heap.KindRefArray, ElemSize: heap.WordSize})
}
