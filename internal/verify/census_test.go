package verify_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wearmem/internal/core"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// censusRun is the slice of harness.RunConfig that shapes the final heap.
type censusRun struct {
	bench     string
	collector vm.CollectorKind
	rate      float64
	aware     bool
	mutators  int
}

// finishedHeap assembles the stack the way harness.execute does, runs the
// benchmark at quick length and returns the heap it leaves behind.
func finishedHeap(t testing.TB, rc censusRun) *vm.VM {
	t.Helper()
	p := workload.ByName(rc.bench)
	heapBytes := 2 * p.MinHeap()
	comp := 1.0
	if rc.rate > 0 {
		comp = 1 / (1 - rc.rate)
	}
	poolPages := int(1.25*comp*float64(heapBytes))/failmap.PageSize + 64
	var inject *failmap.Map
	if rc.rate > 0 {
		inject = failmap.New(poolPages * failmap.PageSize)
		failmap.GenerateUniform(inject, rc.rate, rand.New(rand.NewSource(43)))
	}
	clock := stats.NewClock(stats.DefaultCosts())
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Inject: inject, Clock: clock})
	v := vm.New(vm.Config{
		HeapBytes:    heapBytes,
		Compensate:   rc.rate > 0,
		Collector:    rc.collector,
		FailureAware: rc.aware,
		Kernel:       kern,
		Clock:        clock,
	})
	iters := p.Iterations / 16
	if iters < 50 {
		iters = 50
	}
	if err := p.RunMutators(v, iters, rc.mutators); err != nil {
		t.Fatalf("%+v: %v", rc, err)
	}
	return v
}

// TestCensusMatchesReference holds the bitset-and-inlined-FNV census to the
// map-and-hash/fnv one it replaced, on the heaps real runs leave behind:
// six benchmarks under each of the four collectors, healthy and at 25 %
// failed lines, one and two mutators.
func TestCensusMatchesReference(t *testing.T) {
	var runs []censusRun
	for _, c := range []vm.CollectorKind{vm.MarkSweep, vm.StickyMarkSweep, vm.Immix, vm.StickyImmix} {
		for i, b := range []string{"avrora", "fop", "luindex", "pmd", "sunflow", "xalan"} {
			rc := censusRun{bench: b, collector: c, mutators: 1 + i%2}
			if i%3 == 0 {
				rc.rate, rc.aware = 0.25, c == vm.Immix || c == vm.StickyImmix
			}
			runs = append(runs, rc)
		}
	}
	for _, rc := range runs {
		rc := rc
		t.Run(fmt.Sprintf("%s/%v/f%v/m%d", rc.bench, rc.collector, rc.rate, rc.mutators), func(t *testing.T) {
			v := finishedHeap(t, rc)
			got := verify.Census(v.Model(), v.Roots())
			want := verify.CensusReference(v.Model(), v.Roots())
			if got != want {
				t.Fatalf("census %+v, reference %+v", got, want)
			}
			if got.Objects == 0 || got.Hash == 0 {
				t.Fatalf("empty census %+v: the run left nothing to compare", got)
			}
		})
	}
}

// BenchmarkCensus is one census of the heap an array-heavy run leaves
// behind (xalan: most of its live bytes are scalar arrays nobody wrote,
// which the zero-word multiply is for).
func BenchmarkCensus(b *testing.B) {
	v := finishedHeap(b, censusRun{bench: "xalan", collector: vm.StickyImmix, mutators: 1})
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += verify.Census(v.Model(), v.Roots()).Hash
	}
	if sum == 0 {
		b.Fatal("empty census")
	}
}

// handHeap is a three-object heap written by hand: a pair whose two
// reference slots name a blob and a reference array, which points back at
// the pair and at the blob.
type handHeap struct {
	m                *heap.Model
	roots            *core.RootSet
	root             heap.Addr
	pair, blob, refs heap.Addr
}

func newHandHeap() *handHeap {
	m := &heap.Model{S: heap.NewSpace(), T: heap.NewTypeTable()}
	m.S.Ensure(4096)
	pairT := m.T.Register(&heap.Type{Name: "pair", Kind: heap.KindFixed, Size: 40, RefOffsets: []int{8, 24}})
	blobT := m.T.Register(&heap.Type{Name: "blob", Kind: heap.KindScalarArray, ElemSize: 1})
	refsT := m.T.Register(&heap.Type{Name: "refs", Kind: heap.KindRefArray})
	h := &handHeap{m: m, roots: core.NewRootSet(), pair: 64, blob: 128, refs: 256}
	m.InitObject(h.pair, pairT, 40, 0)
	m.S.Store64(h.pair+8, uint64(h.blob))
	m.S.Store64(h.pair+16, 0xfeedface)
	m.S.Store64(h.pair+24, uint64(h.refs))
	m.S.Store64(h.pair+32, 7)
	m.InitObject(h.blob, blobT, heap.ArraySize(blobT, 21), 21)
	copy(m.S.Bytes(h.blob+heap.ArrayHeaderSize, 21), "the quick brown fox j")
	m.InitObject(h.refs, refsT, heap.ArraySize(refsT, 3), 3)
	m.S.Store64(h.refs+heap.ArrayHeaderSize, uint64(h.pair))
	m.S.Store64(h.refs+heap.ArrayHeaderSize+16, uint64(h.blob))
	h.root = h.pair
	h.roots.Add(&h.root)
	return h
}

func (h *handHeap) both(t *testing.T) verify.CensusReport {
	t.Helper()
	got := verify.Census(h.m, h.roots)
	if want := verify.CensusReference(h.m, h.roots); got != want {
		t.Fatalf("census %+v, reference %+v", got, want)
	}
	return got
}

// TestCensusMalformedHeaps covers what no finished run leaves behind: a
// forwarding header (skipped, not followed), an object whose size runs
// past the end of the space, an unregistered type, and a reference beyond
// the space.
func TestCensusMalformedHeaps(t *testing.T) {
	whole := newHandHeap().both(t)
	if whole.Objects != 3 {
		t.Fatalf("hand-built heap has %d reachable objects, want 3", whole.Objects)
	}

	t.Run("forwarded", func(t *testing.T) {
		h := newHandHeap()
		h.m.Forward(h.blob, 512)
		if got := h.both(t); got.Objects != 2 {
			t.Fatalf("forwarded blob still counted: %+v", got)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		h := newHandHeap()
		// The reference array now claims to end past the space.
		h.m.S.Store64(h.refs, h.m.S.Load64(h.refs)&(1<<40-1)|uint64(8192)<<40)
		if got := h.both(t); got.Objects != 2 {
			t.Fatalf("truncated array still counted: %+v", got)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		h := newHandHeap()
		h.m.S.Store64(h.blob, uint64(999)<<24|uint64(32)<<40)
		if got := h.both(t); got.Objects != 2 {
			t.Fatalf("object of unregistered type still counted: %+v", got)
		}
	})
	t.Run("reference past the space", func(t *testing.T) {
		h := newHandHeap()
		h.m.S.Store64(h.refs+heap.ArrayHeaderSize+8, 4096-4)
		if got := h.both(t); got.Objects != 3 || got.Hash == whole.Hash {
			t.Fatalf("dangling reference: %+v (whole heap %+v)", got, whole)
		}
	})
	t.Run("payload moves the hash", func(t *testing.T) {
		h := newHandHeap()
		h.m.S.Store8(h.blob+heap.ArrayHeaderSize+20, 'k')
		if got := h.both(t); got.Hash == whole.Hash || got.Bytes != whole.Bytes {
			t.Fatalf("one payload byte did not move the hash: %+v vs %+v", got, whole)
		}
	})
}
