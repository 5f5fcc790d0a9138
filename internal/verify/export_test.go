package verify

import (
	"encoding/binary"
	"hash/fnv"

	"wearmem/internal/heap"
)

// CensusReference is the census as first written — a map for the visited
// set, hash/fnv for the digests — kept as the oracle Census is held to.
func CensusReference(m *heap.Model, roots Roots) CensusReport {
	var rep CensusReport
	size := m.S.Size()
	visited := make(map[heap.Addr]bool)
	var stack []heap.Addr
	push := func(a heap.Addr) {
		if a == 0 || visited[a] || a+heap.HeaderSize > size {
			return
		}
		visited[a] = true
		stack = append(stack, a)
	}
	roots.Each(func(slot *heap.Addr) { push(*slot) })

	var refbuf []heap.Addr
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, fwd := m.Forwarded(a); fwd {
			continue
		}
		h := m.S.Load64(a)
		ty, ok := m.T.Lookup(uint16(h >> 24 & 0xFFFF))
		if !ok {
			continue
		}
		osize := int(h >> 40)
		if osize < heap.HeaderSize || heap.Addr(osize) > size-a {
			continue
		}
		rep.Objects++
		rep.Bytes += osize
		rep.Hash += referenceDigest(m, a, ty, osize, &refbuf)
		refbuf = m.RefSlots(a, refbuf[:0])
		for _, slot := range refbuf {
			push(heap.Addr(m.S.Load64(slot)))
		}
	}
	return rep
}

// referenceDigest hashes one object's identity-free content. Reference slots
// contribute only whether they are nil — their values are addresses, which
// legitimately differ between engines and collections.
func referenceDigest(m *heap.Model, a heap.Addr, ty *heap.Type, osize int, refbuf *[]heap.Addr) uint64 {
	d := fnv.New64a()
	var w [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		d.Write(w[:])
	}
	d.Write([]byte(ty.Name))
	word(uint64(ty.Kind))
	word(uint64(osize))
	switch ty.Kind {
	case heap.KindFixed:
		// Scalar payload: every word past the header that is not a
		// reference slot.
		for off := heap.Addr(heap.HeaderSize); off+heap.WordSize <= heap.Addr(osize); off += heap.WordSize {
			isRef := false
			for _, ro := range ty.RefOffsets {
				if heap.Addr(ro) == off {
					isRef = true
					break
				}
			}
			if !isRef {
				word(m.S.Load64(a + off))
			}
		}
	case heap.KindScalarArray:
		word(uint64(m.ArrayLen(a)))
		d.Write(m.S.Bytes(a+heap.ArrayHeaderSize, osize-heap.ArrayHeaderSize))
	case heap.KindRefArray:
		word(uint64(m.ArrayLen(a)))
	}
	// Out-degree: how many reference slots are non-nil (shape information
	// that survives evacuation).
	nonNil := 0
	*refbuf = m.RefSlots(a, (*refbuf)[:0])
	for _, slot := range *refbuf {
		if m.S.Load64(slot) != 0 {
			nonNil++
		}
	}
	word(uint64(nonNil))
	return d.Sum64()
}
