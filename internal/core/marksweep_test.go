package core

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
)

func TestMarkSweepAllocAndCollect(t *testing.T) {
	e := newEnv(t, envOpts{marksweep: true})
	head := e.buildList(300)
	e.addRoot(&head)
	for i := 0; i < 2000; i++ {
		e.newNode(uint64(i)) // garbage
	}
	e.plan.Collect(true, e.roots)
	e.checkList(head, 300)
}

func TestMarkSweepReusesFreedCells(t *testing.T) {
	e := newEnv(t, envOpts{marksweep: true, budgetPages: 32})
	var keep heap.Addr
	e.addRoot(&keep)
	keep = e.newNode(5)
	for i := 0; i < 30000; i++ {
		e.newNode(uint64(i))
	}
	if e.model.S.Load64(keep+nodeVal) != 5 {
		t.Fatal("rooted object lost")
	}
	if e.plan.Stats().Collections == 0 {
		t.Fatal("expected collections under budget pressure")
	}
}

func TestMarkSweepSizeClasses(t *testing.T) {
	if classFor(1) != 0 || classFor(16) != 0 {
		t.Fatal("smallest class wrong")
	}
	if classFor(17) != 1 {
		t.Fatal("17 bytes should use the 32-byte class")
	}
	if classFor(8192) != len(sizeClasses)-1 {
		t.Fatal("largest class wrong")
	}
	if classFor(8193) != -1 {
		t.Fatal("oversize must be rejected")
	}
	for i := 1; i < len(sizeClasses); i++ {
		if sizeClasses[i] <= sizeClasses[i-1] {
			t.Fatal("size classes not increasing")
		}
	}
}

func TestMarkSweepNeverMoves(t *testing.T) {
	e := newEnv(t, envOpts{marksweep: true})
	a := e.newNode(11)
	e.addRoot(&a)
	before := a
	for i := 0; i < 3; i++ {
		e.plan.Collect(true, e.roots)
	}
	if a != before {
		t.Fatal("mark-sweep moved an object")
	}
}

func TestMarkSweepSkipsFailedCells(t *testing.T) {
	inject := failmap.New(2 << 20)
	failmap.GenerateUniform(inject, 0.2, rand.New(rand.NewSource(7)))
	e := newEnv(t, envOpts{marksweep: true, failureAware: true, inject: inject})
	ms := e.plan.(*MarkSweep)
	for i := 0; i < 4000; i++ {
		a := e.alloc(e.blob, heap.ArraySize(e.blob, 100), 100)
		var b *msBlock
		for base, mb := range ms.blockTable {
			if a >= base && a < base+heap.Addr(ms.cfg.BlockSize) {
				b = mb
			}
		}
		if b == nil || b.mem.Fail == nil {
			continue
		}
		off := int(a - b.mem.Base)
		if b.mem.Fail.AnyFailedIn(off, b.cellSize) {
			t.Fatalf("cell [%#x,+%d) overlaps failed memory", a, b.cellSize)
		}
	}
}

func TestStickyMarkSweepNursery(t *testing.T) {
	e := newEnv(t, envOpts{marksweep: true, generational: true})
	old := e.newNode(1)
	e.addRoot(&old)
	e.plan.Collect(true, e.roots)

	young := e.newNode(42)
	e.setRef(old, nodeNext, young)
	before := e.plan.Stats().ObjectsMarked
	for i := 0; i < 500; i++ {
		e.newNode(uint64(i))
	}
	e.plan.Collect(false, e.roots)
	got := e.getRef(old, nodeNext)
	if e.model.S.Load64(got+nodeVal) != 42 {
		t.Fatal("barrier-logged young object lost")
	}
	if e.plan.Stats().ObjectsMarked-before > 50 {
		t.Fatal("nursery pass retraced the old generation")
	}
}

func TestMarkSweepLOSRoundTrip(t *testing.T) {
	e := newEnv(t, envOpts{marksweep: true})
	ms := e.plan.(*MarkSweep)
	big := e.alloc(e.blob, heap.ArraySize(e.blob, 64<<10), 64<<10)
	e.addRoot(&big)
	e.plan.Collect(true, e.roots)
	if ms.los.count() != 1 {
		t.Fatal("large object lost")
	}
	e.roots.Remove(&big)
	e.plan.Collect(true, e.roots)
	if ms.los.count() != 0 {
		t.Fatal("dead large object kept")
	}
}
