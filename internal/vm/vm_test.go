package vm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
)

const (
	nodeNext = 8
	nodeVal  = 16
)

type testVM struct {
	*VM
	node *heap.Type
	blob *heap.Type
}

func makeVM(t *testing.T, heapBytes int, failRate float64, kind CollectorKind, aware bool, clusterPages int, seed int64) *testVM {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	poolPages := 4 * heapBytes / failmap.PageSize * 2
	var inject *failmap.Map
	if failRate > 0 {
		inject = failmap.New(poolPages * failmap.PageSize)
		failmap.GenerateUniform(inject, failRate, rand.New(rand.NewSource(seed)))
		if clusterPages > 0 {
			inject = failmap.ClusterHardware(inject, clusterPages)
		}
	}
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Inject: inject, Clock: clock})
	v := New(Config{
		HeapBytes:    heapBytes,
		Compensate:   failRate > 0,
		Collector:    kind,
		FailureAware: aware,
		Kernel:       kern,
		Clock:        clock,
	})
	tv := &testVM{VM: v}
	tv.node = v.RegisterType(&heap.Type{
		Name: "node", Kind: heap.KindFixed, Size: 24, RefOffsets: []int{nodeNext},
	})
	tv.blob = v.RegisterType(&heap.Type{Name: "blob", Kind: heap.KindScalarArray, ElemSize: 1})
	return tv
}

func (tv *testVM) buildList(t *testing.T, n int) heap.Addr {
	t.Helper()
	var head heap.Addr
	tv.AddRoot(&head) // allocations below may move already-built nodes
	defer tv.RemoveRoot(&head)
	for i := n - 1; i >= 0; i-- {
		a, err := tv.New(tv.node)
		if err != nil {
			t.Fatal(err)
		}
		tv.WriteWord(a, nodeVal, uint64(i))
		tv.WriteRef(a, nodeNext, head)
		head = a
	}
	return head
}

func (tv *testVM) checkList(t *testing.T, head heap.Addr, n int) {
	t.Helper()
	a := head
	for i := 0; i < n; i++ {
		if a == 0 {
			t.Fatalf("list truncated at %d", i)
		}
		if got := tv.ReadWord(a, nodeVal); got != uint64(i) {
			t.Fatalf("node %d = %d", i, got)
		}
		a = tv.ReadRef(a, nodeNext)
	}
}

func TestVMEndToEndChurn(t *testing.T) {
	for _, kind := range []CollectorKind{Immix, StickyImmix, MarkSweep, StickyMarkSweep} {
		t.Run(kind.String(), func(t *testing.T) {
			tv := makeVM(t, 1<<20, 0, kind, false, 0, 1)
			head := tv.buildList(t, 200)
			tv.AddRoot(&head)
			// Churn several times the heap size.
			for i := 0; i < 30000; i++ {
				if _, err := tv.NewArray(tv.blob, 64); err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
			}
			tv.checkList(t, head, 200)
			if tv.GCStats().Collections == 0 {
				t.Fatal("no collections during churn")
			}
		})
	}
}

func TestVMFailureAwareChurn(t *testing.T) {
	for _, rate := range []float64{0.10, 0.25, 0.50} {
		tv := makeVM(t, 1<<20, rate, StickyImmix, true, 2, 42)
		head := tv.buildList(t, 200)
		tv.AddRoot(&head)
		for i := 0; i < 20000; i++ {
			if _, err := tv.NewArray(tv.blob, 64); err != nil {
				t.Fatalf("rate %v iteration %d: %v", rate, i, err)
			}
		}
		tv.checkList(t, head, 200)
	}
}

func makeVMNoComp(t *testing.T, heapBytes int, failRate float64, seed int64) *testVM {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	poolPages := 8 * heapBytes / failmap.PageSize
	inject := failmap.New(poolPages * failmap.PageSize)
	failmap.GenerateUniform(inject, failRate, rand.New(rand.NewSource(seed)))
	inject = failmap.ClusterHardware(inject, 2)
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Inject: inject, Clock: clock})
	v := New(Config{
		HeapBytes: heapBytes, Compensate: false,
		Collector: StickyImmix, FailureAware: true, Kernel: kern, Clock: clock,
	})
	tv := &testVM{VM: v}
	tv.node = v.RegisterType(&heap.Type{
		Name: "node2", Kind: heap.KindFixed, Size: 24, RefOffsets: []int{nodeNext},
	})
	tv.blob = v.RegisterType(&heap.Type{Name: "blob2", Kind: heap.KindScalarArray, ElemSize: 1})
	return tv
}

func TestVMCompensationHoldsUsableConstant(t *testing.T) {
	// Compensation (§6.2) charges imperfect blocks by working bytes, so a
	// live load that fits the heap without failures must still fit at 50%
	// two-page-clustered failures. Without compensation it must not.
	liveLoad := func(tv *testVM) (kept int) {
		keep := make([]heap.Addr, 0, 1024)
		for i := 0; i < 700; i++ { // ~716 KB of live data in a 1 MB heap
			a, err := tv.NewArray(tv.blob, 1024)
			if err != nil {
				break
			}
			keep = append(keep, a)
			tv.AddRoot(&keep[len(keep)-1])
			kept++
		}
		return kept
	}
	if clean := liveLoad(makeVM(t, 1<<20, 0, StickyImmix, true, 0, 1)); clean != 700 {
		t.Fatalf("baseline holds %d/700 arrays", clean)
	}
	if comp := liveLoad(makeVM(t, 1<<20, 0.5, StickyImmix, true, 2, 1)); comp != 700 {
		t.Fatalf("compensated 50%% holds %d/700 arrays; usable memory not preserved", comp)
	}
	if got := liveLoad(makeVMNoComp(t, 1<<20, 0.5, 1)); got >= 700 {
		t.Fatalf("uncompensated 50%% holds %d/700 arrays; failures should reduce capacity", got)
	}
}

func TestVMOOMIsStickyAndReported(t *testing.T) {
	tv := makeVM(t, 128<<10, 0, Immix, false, 0, 1) // 4 blocks
	keep := make([]heap.Addr, 0, 20000)             // preallocated: root slots must not move
	for i := 0; ; i++ {
		a, err := tv.NewArray(tv.blob, 1024)
		if err != nil {
			if err != ErrOutOfMemory || !tv.OOM() {
				t.Fatalf("err = %v, OOM = %v", err, tv.OOM())
			}
			break
		}
		keep = append(keep, a)
		tv.AddRoot(&keep[len(keep)-1])
		if i > 10000 {
			t.Fatal("never hit OOM on a tiny heap")
		}
	}
	if _, err := tv.New(tv.node); err != ErrOutOfMemory {
		t.Fatal("OOM must be sticky")
	}
}

func TestVMLOSBorrowsPerfectPages(t *testing.T) {
	// 50% failures without clustering: perfect pages are rare, so LOS
	// allocations must borrow.
	tv := makeVM(t, 2<<20, 0.5, StickyImmix, true, 0, 7)
	arrs := make([]heap.Addr, 0, 8)
	for i := 0; i < 8; i++ {
		a, err := tv.NewArray(tv.blob, 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		arrs = append(arrs, a)
		tv.AddRoot(&arrs[len(arrs)-1])
	}
	if tv.Kernel().Borrows() == 0 {
		t.Fatal("expected perfect-page borrowing at 50% failures without clustering")
	}
}

func TestVMTwoPageClusteringCutsBorrowing(t *testing.T) {
	demand := func(clusterPages int) int {
		tv := makeVM(t, 2<<20, 0.25, StickyImmix, true, clusterPages, 7)
		arrs := make([]heap.Addr, 0, 12)
		for i := 0; i < 12; i++ {
			a, err := tv.NewArray(tv.blob, 24<<10)
			if err != nil {
				t.Fatal(err)
			}
			arrs = append(arrs, a)
			tv.AddRoot(&arrs[len(arrs)-1])
		}
		return tv.Kernel().Borrows()
	}
	if d0, d2 := demand(0), demand(2); d2 >= d0 {
		t.Fatalf("2-page clustering should reduce perfect-page demand: %d -> %d", d0, d2)
	}
}

func TestVMDynamicFailureUpcall(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{Size: 16 << 20, Endurance: 4, TrackData: false}, clock)
	kern := kernel.New(kernel.Config{PCMPages: 16 << 20 / failmap.PageSize, Device: dev, Clock: clock})
	v := New(Config{
		HeapBytes: 2 << 20, Collector: StickyImmix, FailureAware: true,
		Kernel: kern, Clock: clock,
	})
	node := v.RegisterType(&heap.Type{Name: "n", Kind: heap.KindFixed, Size: 24, RefOffsets: []int{8}})
	var head heap.Addr
	for i := 9; i >= 0; i-- {
		a := v.MustNew(node)
		v.WriteWord(a, 16, uint64(i))
		v.WriteRef(a, 8, head)
		head = a
	}
	v.AddRoot(&head)
	v.Collect(true) // stamp lines live

	// Wear out the PCM lines behind the second node by writing the device
	// directly (the line fails, the kernel reverse-translates, the VM
	// evacuates).
	victim := v.ReadRef(head, 8)
	// Find the physical line: the VM's virtual addresses equal kernel
	// virtual addresses; frame = region mapping. Write through the device
	// at the physical address of the victim's line.
	physLine := physicalLineOf(t, kern, v, victim)
	buf := make([]byte, failmap.LineSize)
	for i := 0; i < 4; i++ {
		dev.Write(physLine, buf)
	}
	if v.GCStats().DynamicFailures == 0 {
		t.Fatal("dynamic failure did not reach the collector")
	}
	// List is intact and the second node relocated or its line retired.
	a := head
	for i := 0; i < 10; i++ {
		if got := v.ReadWord(a, 16); got != uint64(i) {
			t.Fatalf("node %d = %d after dynamic failure", i, got)
		}
		a = v.ReadRef(a, 8)
	}
}

// physicalLineOf resolves the physical PCM line behind a virtual address by
// searching the kernel's mappings (test helper).
func physicalLineOf(t *testing.T, kern *kernel.Kernel, v *VM, a heap.Addr) int {
	t.Helper()
	frame, off, ok := kern.Translate(uint64(a))
	if !ok {
		t.Fatalf("no mapping for %#x", a)
	}
	return frame*failmap.LinesPerPage + off/failmap.LineSize
}

func TestGCTraceWritesSideChannel(t *testing.T) {
	// -gctrace routes collection-trigger lines to a side
	// writer (stderr in the binaries); report bytes must stay unaffected.
	var buf bytes.Buffer
	SetGCTrace(&buf)
	defer SetGCTrace(nil)
	tv := makeVM(t, 256<<10, 0, StickyImmix, true, 0, 1)
	// Churn well past the heap size so allocation must trigger collections.
	for i := 0; i < 4096; i++ {
		if _, err := tv.NewArray(tv.blob, 256); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "GC trigger") {
		t.Fatalf("no GC trigger lines in trace output:\n%q", buf.String())
	}
}
