package core

import (
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/stats"
)

func losUnderTest(t *testing.T) (*los, *heap.Model, *testMem) {
	t.Helper()
	space := heap.NewSpace()
	model := &heap.Model{S: space, T: heap.NewTypeTable()}
	clock := stats.NewClock(stats.DefaultCosts())
	mem := newTestMem(space, 32<<10, -1, nil)
	return newLOS(mem, model, clock, false), model, mem
}

func TestLOSAllocPageRounding(t *testing.T) {
	l, model, _ := losUnderTest(t)
	blob := model.T.Register(&heap.Type{Name: "b", Kind: heap.KindScalarArray, ElemSize: 1})

	for _, n := range []int{1, failmap.PageSize - 32, failmap.PageSize, 3 * failmap.PageSize} {
		size := heap.ArraySize(blob, n)
		a, err := l.alloc(blob, size, n)
		if err != nil {
			t.Fatal(err)
		}
		if !l.contains(a) {
			t.Fatal("allocation not tracked")
		}
		wantPages := (size + failmap.PageSize - 1) / failmap.PageSize
		if got := l.objects[a]; got != wantPages {
			t.Fatalf("n=%d: %d pages held, want %d", n, got, wantPages)
		}
		if model.ArrayLen(a) != n {
			t.Fatalf("length %d, want %d", model.ArrayLen(a), n)
		}
	}
}

func TestLOSSweepFullVsNursery(t *testing.T) {
	l, model, _ := losUnderTest(t)
	blob := model.T.Register(&heap.Type{Name: "b", Kind: heap.KindScalarArray, ElemSize: 1})
	size := heap.ArraySize(blob, 10<<10)

	old, _ := l.alloc(blob, size, 10<<10)
	young, _ := l.alloc(blob, size, 10<<10)
	model.SetEpoch(old, 5) // marked at epoch 5: an old survivor

	// Nursery sweep at epoch 5: only the never-marked young object dies.
	l.sweep(5, false)
	if !l.contains(old) || l.contains(young) {
		t.Fatalf("nursery sweep wrong: old=%v young=%v", l.contains(old), l.contains(young))
	}
	// Full sweep at epoch 6 with no re-marking: the old object dies too.
	l.sweep(6, true)
	if l.contains(old) {
		t.Fatal("full sweep kept a stale object")
	}
	if l.count() != 0 {
		t.Fatalf("LOS not empty: count=%d", l.count())
	}
}

func TestLOSReleasesPagesOnSweep(t *testing.T) {
	l, model, mem := losUnderTest(t)
	blob := model.T.Register(&heap.Type{Name: "b", Kind: heap.KindScalarArray, ElemSize: 1})
	a, _ := l.alloc(blob, heap.ArraySize(blob, 20<<10), 20<<10)
	_ = a
	budgetBefore := mem.budget
	l.sweep(1, true) // nothing marked: everything dies
	if mem.budget == budgetBefore && mem.budget >= 0 {
		t.Fatal("pages not returned to the memory source")
	}
}
