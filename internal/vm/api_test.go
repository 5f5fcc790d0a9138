package vm

import (
	"strings"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
)

func TestCollectorKindStrings(t *testing.T) {
	want := map[CollectorKind]string{
		Immix: "IX", StickyImmix: "S-IX", MarkSweep: "MS", StickyMarkSweep: "S-MS",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !strings.Contains(CollectorKind(99).String(), "99") {
		t.Error("unknown kind should include its number")
	}
}

func TestMustNewPanicsOnOOM(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 128 << 10, Collector: Immix}, kernel.Config{})
	keep := make([]heap.Addr, 0, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewArray did not panic on OOM")
		}
	}()
	for {
		keep = append(keep, tv.MustNewArray(tv.blob, 2048))
		tv.AddRoot(&keep[len(keep)-1])
	}
}

func TestArrayAccessors(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: StickyImmix}, kernel.Config{})
	refs := tv.RegisterType(&heap.Type{Name: "refs", Kind: heap.KindRefArray})
	arr := tv.MustNewArray(refs, 4)
	tv.AddRoot(&arr)
	n := tv.MustNew(tv.node)
	tv.SetArrayRef(arr, 2, n)
	if tv.ArrayRef(arr, 2) != n || tv.ArrayRef(arr, 0) != 0 {
		t.Fatal("ref array round trip failed")
	}
	bytes := tv.MustNewArray(tv.blob, 10)
	tv.AddRoot(&bytes)
	tv.SetArrayByte(bytes, 9, 0xAB)
	if tv.ArrayByte(bytes, 9) != 0xAB {
		t.Fatal("byte array round trip failed")
	}
	for _, f := range []func(){
		func() { tv.ArrayRef(arr, 4) },
		func() { tv.ArrayRef(arr, -1) },
		func() { tv.SetArrayByte(bytes, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMemoryDebugString(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: StickyImmix}, kernel.Config{})
	tv.MustNew(tv.node)
	s := tv.MemoryDebug()
	for _, want := range []string{"budget=", "immixBlocks=", "los="} {
		if !strings.Contains(s, want) {
			t.Fatalf("MemoryDebug %q missing %q", s, want)
		}
	}
}

func TestRemoveRoot(t *testing.T) {
	tv := newTestVM(t, Config{HeapBytes: 1 << 20, Collector: StickyImmix}, kernel.Config{})
	var a heap.Addr
	tv.AddRoot(&a)
	a = tv.MustNew(tv.node)
	tv.RemoveRoot(&a)
	// The object is now garbage; churn must reclaim it without touching a.
	for i := 0; i < 20000; i++ {
		tv.MustNewArray(tv.blob, 64)
	}
	if tv.GCStats().Collections == 0 {
		t.Fatal("no collections")
	}
}

func TestVMConfigValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{}) },
		func() { New(Config{HeapBytes: 1 << 20}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			f()
		}()
	}
}
