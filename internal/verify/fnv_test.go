package verify

import (
	"hash/fnv"
	"testing"
)

// TestFNVBytesMatchesHashFNV holds the word-at-a-time hash, and its one
// multiply for a zero word, to hash/fnv's byte-at-a-time New64a: buffers of
// every length from 0 to 40, with a run of zeros of every length at every
// offset (so zero words at every alignment against the eight-byte steps,
// and zero bytes in the byte-wise tail), chained from a non-trivial state.
func TestFNVBytesMatchesHashFNV(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for start := 0; start <= n; start++ {
			for end := start; end <= n; end++ {
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(37*i + 1)
				}
				clear(buf[start:end])
				ref := fnv.New64a()
				ref.Write([]byte("seed"))
				ref.Write(buf)
				if got, want := fnvBytes(fnvBytes(fnvOffset64, []byte("seed")), buf), ref.Sum64(); got != want {
					t.Fatalf("len %d, zeros [%d,%d): fnvBytes %#x, hash/fnv %#x", n, start, end, got, want)
				}
			}
		}
	}
}
