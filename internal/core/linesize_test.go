package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
)

// Each supported Immix line size must survive a churn workload with
// moving collections and failures, and waste memory monotonically with
// line size (false failures, §6.3).
func TestImmixAllLineSizes(t *testing.T) {
	for _, ls := range []int{64, 128, 256, 512} {
		ls := ls
		t.Run(string(rune('0'+ls/64))+"x64B", func(t *testing.T) {
			inject := failmap.New(8 << 20)
			failmap.GenerateUniform(inject, 0.15, rand.New(rand.NewSource(7)))
			e := newEnv(t, envOpts{failureAware: true, lineSize: ls, inject: inject, budgetPages: 512})
			var head heap.Addr
			e.addRoot(&head)
			for i := 0; i < 4000; i++ {
				n := e.newNode(uint64(i))
				e.setRef(n, nodeNext, head)
				if i%16 == 0 {
					head = n // keep a growing chain of every 16th node
				}
				e.alloc(e.blob, heap.ArraySize(e.blob, 40+(i%200)), 1)
			}
			e.plan.Collect(true, e.roots)
			// Chain intact?
			count := 0
			for a := head; a != 0; a = e.getRef(a, nodeNext) {
				count++
				if count > 5000 {
					t.Fatal("chain cycle or corruption")
				}
			}
			if count < 4000/16 {
				t.Fatalf("chain lost nodes: %d", count)
			}
		})
	}
}

func TestGCPauseAccounting(t *testing.T) {
	e := newEnv(t, envOpts{})
	head := e.buildList(2000)
	e.addRoot(&head)
	e.plan.Collect(true, e.roots)
	st := e.plan.Stats()
	if st.MaxGCCycles == 0 || st.TotalGCCycles == 0 {
		t.Fatalf("pause accounting empty: %+v", st)
	}
	if st.MaxGCCycles > st.TotalGCCycles {
		t.Fatal("max pause above total pause time")
	}
	prevTotal := st.TotalGCCycles
	e.plan.Collect(true, e.roots)
	if st.TotalGCCycles <= prevTotal {
		t.Fatal("total pause time did not accumulate")
	}
}

// Defragmentation must never evacuate into a candidate block and must
// leave the line marks consistent: after a full collection every live
// object sits on lines stamped with the current epoch.
func TestDefragConsistency(t *testing.T) {
	e := newEnv(t, envOpts{})
	ix := e.plan.(*Immix)
	var keepers []heap.Addr
	for i := 0; i < 600; i++ {
		n := e.newNode(uint64(i))
		if i%4 == 0 {
			keepers = append(keepers, n)
		}
		e.alloc(e.blob, heap.ArraySize(e.blob, 200), 1)
	}
	for i := range keepers {
		e.addRoot(&keepers[i])
	}
	for round := 0; round < 3; round++ {
		e.plan.Collect(true, e.roots)
		for i, k := range keepers {
			b := ix.blockOf(k)
			if b == nil {
				t.Fatalf("keeper %d left the Immix space", i)
			}
			size := e.model.SizeOf(k)
			first := int(k-b.mem.Base) / ix.cfg.LineSize
			last := int(int(k-b.mem.Base)+size-1) / ix.cfg.LineSize
			for l := first; l <= last; l++ {
				if !b.markedAt(l, ix.Epoch()) {
					t.Fatalf("keeper %d line %d not stamped live", i, l)
				}
				if b.failedAt(l) {
					t.Fatalf("keeper %d sits on a failed line", i)
				}
			}
			if got := e.model.S.Load64(k + nodeVal); got != uint64(i*4) {
				t.Fatalf("keeper %d corrupted: %d", i, got)
			}
		}
	}
}

// The block index must resolve addresses exactly at block boundaries.
func TestBlockIndexBoundaries(t *testing.T) {
	e := newEnv(t, envOpts{})
	ix := e.plan.(*Immix)
	a := e.newNode(1)
	b := ix.blockOf(a)
	if b == nil {
		t.Fatal("no block for fresh object")
	}
	base := b.mem.Base
	if ix.blockOf(base) != b {
		t.Fatal("base address not in its own block")
	}
	if ix.blockOf(base+heap.Addr(ix.cfg.BlockSize-1)) != b {
		t.Fatal("last byte not in block")
	}
	if got := ix.blockOf(base + heap.Addr(ix.cfg.BlockSize)); got == b {
		t.Fatal("one-past-end resolved to the block")
	}
	if ix.blockOf(1) != nil && ix.blockOf(1) == b {
		t.Fatal("low address resolved to the block")
	}
}

func TestConfigValidationPanics(t *testing.T) {
	space := heap.NewSpace()
	model := &heap.Model{S: space, T: heap.NewTypeTable()}
	mem := newTestMem(space, 32<<10, -1, nil)
	base := Config{Model: model, Mem: mem}
	bad := []Config{
		{},                       // missing everything
		{Model: model, Mem: mem}, // missing clock
		func() Config { c := base; c.LineSize = 32; return c }(),           // below PCM line
		func() Config { c := base; c.LineSize = 100; return c }(),          // not divisor
		func() Config { c := base; c.BlockSize = 5000; return c }(),        // unaligned
		func() Config { c := base; c.LOSThreshold = 64 << 10; return c }(), // > block
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			cfg.fill()
		}()
	}
}

// The index itself, without a plan: find resolves a block's first and last
// byte to it and the bytes either side to a neighbour or nil, a removed
// block resolves to nil, the sorted list keeps address order, and a base
// off the block grid is refused by name instead of indexed.
func TestBlockIndexAligned(t *testing.T) {
	const size = 32 << 10
	var bi blockIndex
	bi.init(size)
	at := func(slot int) *block { return &block{mem: BlockMem{Base: heap.Addr(slot * size)}} }
	b2, b3, b5 := at(2), at(3), at(5)
	for _, b := range []*block{b5, b2, b3} {
		bi.insert(b)
	}
	for _, c := range []struct {
		a    heap.Addr
		want *block
	}{
		{0, nil}, {2*size - 1, nil}, {2 * size, b2}, {3*size - 1, b2}, {3 * size, b3}, {4*size - 1, b3},
		{4 * size, nil}, {5 * size, b5}, {6*size - 1, b5}, {6 * size, nil}, {1 << 40, nil},
	} {
		if got := bi.find(c.a); got != c.want {
			t.Errorf("find(%#x) = %p, want %p", c.a, got, c.want)
		}
	}
	bi.remove(b3.mem.Base)
	for _, a := range []heap.Addr{3 * size, 4*size - 1} {
		if got := bi.find(a); got != nil {
			t.Errorf("find(%#x) after removing its block = %p, want nil", a, got)
		}
	}
	if bi.find(3*size-1) != b2 || bi.find(4*size) != nil {
		t.Error("removing a block disturbed its neighbours")
	}
	if bi.len() != 2 || bi.all[0] != b2 || bi.all[1] != b5 {
		t.Errorf("blocks %v after the removal, want b2 then b5", bi.all)
	}

	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "0x11000") {
			t.Fatalf("inserting an unaligned base: panic %v, want one naming 0x11000", p)
		}
	}()
	bi.insert(&block{mem: BlockMem{Base: 2*size + 4096}})
}
