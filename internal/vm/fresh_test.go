package vm

import (
	"bytes"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/kernel"
)

// Only memory mapped for the request it serves may skip zeroing: a block
// slot the pool hands out again, lines a sweep reclaimed and pages carved
// from a freed large-object extent all hold an earlier object's bytes.
// Generations of small, medium and large arrays, each filled with a
// pattern and most of them dropped, must each find every fresh array all
// zero beyond its header, on both Immix collectors and on a pool with and
// without failed lines.
func TestReusedMemoryReadsZero(t *testing.T) {
	sizes := []int{24, 200, 600, 3000, 9000, 20000}
	pattern := bytes.Repeat([]byte{0xa5}, 20016)
	for _, c := range []struct {
		name string
		cfg  Config
		kc   kernel.Config
	}{
		{"IX", Config{HeapBytes: 1 << 20, Collector: Immix}, kernel.Config{}},
		{"S-IX", Config{HeapBytes: 1 << 20, Collector: StickyImmix}, kernel.Config{}},
		{"S-IX aware 10%", Config{HeapBytes: 1 << 20, Collector: StickyImmix, FailureAware: true, Compensate: true},
			withFailures(1<<20, 0.10, 0, 3)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tv := newTestVM(t, c.cfg, c.kc)
			live := make([]heap.Addr, 16)
			for i := range live {
				tv.AddRoot(&live[i])
			}
			allocated := 0
			for i := 0; i < 6000; i++ {
				n := sizes[i%len(sizes)] + i%13
				allocated += n
				a, err := tv.NewArray(tv.blob, n)
				if err != nil {
					t.Fatalf("allocation %d (%d bytes): %v", i, n, err)
				}
				if b := tv.Model().S.Bytes(a+heap.ArrayHeaderSize, n); !bytes.Equal(b, make([]byte, n)) {
					t.Fatalf("allocation %d (%d bytes at %#x, %d collections) holds old bytes",
						i, n, a, tv.GCStats().Collections)
				}
				tv.SetArrayBytes(a, 0, pattern[:n])
				if i%7 == 0 {
					live[i%len(live)] = a
				}
			}
			// Fresh mappings only ever move up the address space: a
			// high-water mark far below the bytes allocated is memory reused.
			if mapped := int(tv.Model().S.Size()); tv.GCStats().FullCollections == 0 || mapped > allocated/8 {
				t.Fatalf("%d full collections, %d bytes mapped for %d allocated: the memory was not reused",
					tv.GCStats().FullCollections, mapped, allocated)
			}
		})
	}
}
