package verify

import (
	"encoding/binary"

	"wearmem/internal/heap"
)

// CensusReport is an engine-invariant summary of the roots-reachable heap.
// Two runs of the same workload — whatever engine, interleaving, or object
// placement — must agree on it: the per-object digests exclude addresses
// (references contribute only their non-nil count) and the multiset hash
// is order-independent, so evacuation, allocation order and mutator
// scheduling cannot move it. The engine cross-check harness compares baton
// and threaded runs through this report.
type CensusReport struct {
	// Objects and Bytes count the roots-reachable object graph.
	Objects int `json:"objects"`
	Bytes   int `json:"bytes"`
	// Hash is an order- and address-independent multiset digest: the
	// wrapping sum of each reachable object's FNV-1a digest over its type
	// name, kind, size, array length, scalar payload and non-nil
	// reference count.
	Hash uint64 `json:"hash"`
}

// FNV-1a, 64 bit (hash/fnv's New64a), inlined: one digest per reachable
// object made the hasher's allocation and per-word interface call the
// largest cost of a census.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64x8 is fnvPrime64 to the eighth power, modulo 2^64.
	fnvPrime64x2 = fnvPrime64 * fnvPrime64 % (1 << 64)
	fnvPrime64x4 = fnvPrime64x2 * fnvPrime64x2 % (1 << 64)
	fnvPrime64x8 = fnvPrime64x4 * fnvPrime64x4 % (1 << 64)
)

// fnvBytes hashes b eight bytes at a time, then its tail byte by byte.
func fnvBytes(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = fnvWord(h, binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fnvWord hashes v's eight little-endian bytes. A zero byte leaves h as it
// was before the multiply (x ^ 0 = x), so a zero word, which is most of a
// scalar array nobody wrote, is one multiply by the prime's eighth power in
// place of a chain of eight.
func fnvWord(h, v uint64) uint64 {
	if v == 0 {
		return h * fnvPrime64x8
	}
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xFF) * fnvPrime64
		v >>= 8
	}
	return h
}

// censusWalk is the traversal state: one visited bit per word of the
// space (object bases are word-aligned) and the stack of objects found
// but not yet digested.
type censusWalk struct {
	size    heap.Addr
	visited []uint64
	stack   []heap.Addr
}

func (w *censusWalk) push(a heap.Addr) {
	if a == 0 || a%heap.WordSize != 0 || a > w.size-heap.HeaderSize {
		return
	}
	i, bit := a/(64*heap.WordSize), uint64(1)<<(a/heap.WordSize%64)
	if w.visited[i]&bit != 0 {
		return
	}
	w.visited[i] |= bit
	w.stack = append(w.stack, a)
}

// follow pushes the referent of a reference slot and returns 1 when the
// slot is non-nil.
func (w *censusWalk) follow(m *heap.Model, slot heap.Addr) int {
	r := heap.Addr(m.S.Load64(slot))
	if r == 0 {
		return 0
	}
	w.push(r)
	return 1
}

// Census walks the heap from the roots and returns its invariant summary.
// It must run at a safe point (no collection in progress); malformed
// objects — and references that are not word-aligned — are skipped rather
// than reported: run Heap for diagnostics.
func Census(m *heap.Model, roots Roots) CensusReport {
	var rep CensusReport
	size := m.S.Size()
	if size < heap.HeaderSize {
		return rep
	}
	w := censusWalk{size: size, visited: make([]uint64, size/(64*heap.WordSize)+1)}
	roots.Each(func(slot *heap.Addr) { w.push(*slot) })

	for len(w.stack) > 0 {
		a := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		h := m.S.Load64(a)
		if _, fwd := heap.HeaderForwarded(h); fwd {
			continue
		}
		ty, ok := m.T.Lookup(uint16(h >> 24 & 0xFFFF))
		if !ok {
			continue
		}
		osize := heap.SizeFromHeader(h)
		if osize < heap.HeaderSize || heap.Addr(osize) > size-a {
			continue
		}
		rep.Objects++
		rep.Bytes += osize
		rep.Hash += w.digest(m, a, ty, osize)
	}
	return rep
}

// digest hashes one object's identity-free content and pushes its
// referents. Reference slots contribute only whether they are nil — their
// values are addresses, which legitimately differ between engines and
// collections.
func (w *censusWalk) digest(m *heap.Model, a heap.Addr, ty *heap.Type, osize int) uint64 {
	d := uint64(fnvOffset64)
	for i := 0; i < len(ty.Name); i++ {
		d = (d ^ uint64(ty.Name[i])) * fnvPrime64
	}
	d = fnvWord(d, uint64(ty.Kind))
	d = fnvWord(d, uint64(osize))
	// Out-degree: how many reference slots are non-nil (shape information
	// that survives evacuation).
	nonNil := 0
	switch ty.Kind {
	case heap.KindFixed:
		// Scalar payload: every word past the header that is not a
		// reference slot, as it lies in memory.
		body := m.S.Bytes(a, osize)
		for off := heap.HeaderSize; off+heap.WordSize <= osize; off += heap.WordSize {
			isRef := false
			for _, ro := range ty.RefOffsets {
				if ro == off {
					isRef = true
					break
				}
			}
			if !isRef {
				d = fnvBytes(d, body[off:off+heap.WordSize])
			}
		}
		for _, ro := range ty.RefOffsets {
			nonNil += w.follow(m, a+heap.Addr(ro))
		}
	case heap.KindScalarArray:
		d = fnvWord(d, uint64(m.ArrayLen(a)))
		d = fnvBytes(d, m.S.Bytes(a+heap.ArrayHeaderSize, osize-heap.ArrayHeaderSize))
	case heap.KindRefArray:
		n := m.ArrayLen(a)
		d = fnvWord(d, uint64(n))
		for i := 0; i < n; i++ {
			nonNil += w.follow(m, a+heap.ArrayHeaderSize+heap.Addr(i*heap.WordSize))
		}
	}
	return fnvWord(d, uint64(nonNil))
}
