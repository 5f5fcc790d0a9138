package vm

import (
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

// A dynamic failure on a line holding a pinned object cannot be fixed by
// evacuation; the OS must replace the page with a perfect frame (§3.3.3).
func TestPinnedObjectDynamicFailureRemapsPage(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	kern := kernel.New(kernel.Config{PCMPages: 4096, Clock: clock})
	v := New(Config{
		HeapBytes: 2 << 20, Collector: StickyImmix, FailureAware: true,
		Kernel: kern, Clock: clock,
	})
	node := v.RegisterType(&heap.Type{Name: "n", Kind: heap.KindFixed, Size: 24, RefOffsets: []int{8}})

	pinned := v.MustNew(node)
	v.WriteWord(pinned, 16, 77)
	v.AddRoot(&pinned)
	v.Pin(pinned)
	v.Collect(true) // stamp its line live

	before := pinned
	borrowsBefore := kern.Borrows()
	// Fail the pinned object's line.
	frame, off, ok := kern.Translate(uint64(pinned))
	if !ok {
		t.Fatal("pinned object unmapped")
	}
	_ = frame
	region := regionOf(t, kern, uint64(pinned))
	kern.InjectDynamicFailure(region, int((uint64(pinned)-region.Base)/failmap.PageSize),
		off/failmap.LineSize)

	if pinned != before {
		t.Fatal("pinned object moved")
	}
	if v.ReadWord(pinned, 16) != 77 {
		t.Fatal("pinned data lost")
	}
	if v.OSRemaps == 0 {
		t.Fatal("no OS page remap recorded for the pinned line")
	}
	// The virtual page is perfect again: its line is usable and the region
	// maps a clean frame.
	if v.immix.LiveOnFailedLine(pinned) {
		t.Fatal("line still failed after remap")
	}
	_ = borrowsBefore
}

// regionOf finds the kernel region containing a virtual address (test
// helper mirroring the kernel's internal lookup).
func regionOf(t *testing.T, kern *kernel.Kernel, vaddr uint64) *kernel.Region {
	t.Helper()
	r := kern.RegionAt(vaddr)
	if r == nil {
		t.Fatalf("no region for %#x", vaddr)
	}
	return r
}
