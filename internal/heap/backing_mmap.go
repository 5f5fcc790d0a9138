//go:build unix && !race

package heap

import (
	"fmt"
	"syscall"
)

// offHeap reports whether a space's backing lives outside the Go heap.
const offHeap = true

// mapBacking returns n zero bytes of an anonymous private mapping. The
// kernel backs a page with memory the first time it is touched, and the Go
// collector neither counts nor scans the mapping, so a backing adds nothing
// to the heap size Go paces its collections by.
func mapBacking(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("heap: mapping a backing of %d bytes: %v", n, err))
	}
	mappings.Add(1)
	return b
}

// unmapBacking gives b, a whole mapping from mapBacking, back to the kernel.
func unmapBacking(b []byte) {
	if err := syscall.Munmap(b[:cap(b)]); err != nil {
		panic(fmt.Sprintf("heap: unmapping a backing: %v", err))
	}
	mappings.Add(-1)
}
