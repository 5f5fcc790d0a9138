//go:build !unix || race

package heap

// offHeap reports whether a space's backing lives outside the Go heap. It
// does not under the race detector, which ignores memory outside the Go
// heap and data segments and so would see no access to a mapped space, nor
// where there is no mmap.
const offHeap = false

// mapBacking returns n zero bytes of the Go heap.
func mapBacking(n int) []byte {
	mappings.Add(1)
	return make([]byte, n)
}

// unmapBacking drops b to the garbage collector.
func unmapBacking([]byte) { mappings.Add(-1) }
