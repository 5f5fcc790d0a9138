// Package heap provides the simulated address space and object model the
// collectors operate on.
//
// The managed heap of the reproduction lives in a flat simulated virtual
// address space backed by host memory (the paper likewise executes on DRAM
// and injects faults, §5). Objects carry a one-word header holding flags, a
// sticky mark epoch, a type index and the object size; reference fields are
// located through type descriptors, giving the collectors an exact object
// map. Address 0 is the nil reference.
package heap

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Addr is a virtual address in the simulated heap. 0 is nil.
type Addr uint64

// WordSize is the size of a reference slot and of the object header.
const WordSize = 8

// Space is the simulated virtual address space. Pages are materialized on
// demand as the kernel maps regions at increasing virtual addresses.
//
// A space has a lifecycle: NewSpace adopts the backing array a finished
// run parked with Release, so back-to-back simulator runs reuse one
// allocation instead of each growing, zeroing and copying its own. A space
// that is never released is garbage-collected like any other value.
type Space struct {
	mem []byte
	// frozen forbids further growth: the threaded engine pre-materializes
	// the space (Reserve) because a reallocate-and-copy under concurrent
	// mutator loads would tear. Growth past the reservation panics with an
	// actionable message instead of racing.
	frozen bool
	// mapped is the high-water mark of Ensure: nothing above it was ever
	// mapped, so nothing above it was ever written, and Release clears no
	// further. Reserve's tail beyond it is zero and stays untouched.
	mapped Addr
	// released marks a space whose backing went back to the free list;
	// mem is nil from then on, so every accessor faults.
	released bool
}

// parked is the free list of released backings. Every byte of a parked
// backing's capacity is zero, and its length is zero. A backing enters
// only through Release and leaves at the next NewSpace, so the list never
// holds more entries than spaces were open at once — which bounds the
// memory it retains without a size limit to tune.
var parked struct {
	sync.Mutex
	backings [][]byte
}

// NewSpace returns an empty address space, backed by the largest parked
// backing when there is one.
func NewSpace() *Space {
	parked.Lock()
	defer parked.Unlock()
	best := -1
	for i, b := range parked.backings {
		if best < 0 || cap(b) > cap(parked.backings[best]) {
			best = i
		}
	}
	if best < 0 {
		return &Space{}
	}
	mem := parked.backings[best]
	last := len(parked.backings) - 1
	parked.backings[best] = parked.backings[last]
	parked.backings[last] = nil
	parked.backings = parked.backings[:last]
	return &Space{mem: mem}
}

// Parked returns the number of backings on the free list.
func Parked() int {
	parked.Lock()
	defer parked.Unlock()
	return len(parked.backings)
}

// Release ends the space's life and parks its backing for the next
// NewSpace, cleared up to the mapped high-water mark. The caller must be
// the only goroutine still holding the space. Afterwards every accessor
// panics; releasing twice is harmless.
func (s *Space) Release() {
	if s.released {
		return
	}
	mem := s.mem
	s.mem, s.released = nil, true
	if cap(mem) == 0 {
		return
	}
	clear(mem[:s.mapped])
	parked.Lock()
	parked.backings = append(parked.backings, mem[:0])
	parked.Unlock()
}

// Ensure grows the backing store to cover addresses below limit. Capacity
// grows geometrically so that the kernel's page-at-a-time virtual growth
// costs amortized O(1) per byte rather than a full reallocate-and-copy per
// mapping; the extension is zeroed (fresh mappings read as zero).
func (s *Space) Ensure(limit Addr) {
	s.grow(limit)
	if limit > s.mapped {
		s.mapped = limit
	}
}

// grow materializes addresses below limit without counting them as mapped.
func (s *Space) grow(limit Addr) {
	if uint64(limit) <= uint64(len(s.mem)) {
		return
	}
	if s.released {
		panic("heap: use of a released space")
	}
	if s.frozen {
		panic(fmt.Sprintf(
			"heap: space frozen at %#x but %#x required — raise the threaded engine's virtual reservation",
			len(s.mem), limit))
	}
	if uint64(limit) <= uint64(cap(s.mem)) {
		// The backing array beyond len is zero — fresh from make, or
		// cleared by the Release that parked it — and has not been exposed
		// since, so reslicing materializes zero pages.
		s.mem = s.mem[:limit]
		return
	}
	newCap := 2 * uint64(cap(s.mem))
	if newCap < uint64(limit) {
		newCap = uint64(limit)
	}
	grown := make([]byte, limit, newCap)
	copy(grown, s.mem)
	s.mem = grown
}

// Reserve pre-materializes the space up to limit and freezes it there: any
// later Ensure beyond the reservation panics instead of reallocating. The
// threaded engine calls this once at startup so concurrent accessors never
// observe the backing array move. A reservation that fits an adopted
// backing is a reslice; one that does not is a make of the whole
// reservation, which the Go runtime clears — resident memory, not merely
// address space, whenever the host heap hands back a reused span.
func (s *Space) Reserve(limit Addr) {
	s.grow(limit)
	s.frozen = true
}

// Size returns the highest materialized address.
func (s *Space) Size() Addr { return Addr(len(s.mem)) }

func (s *Space) slice(a Addr, n int) []byte {
	if a == 0 || uint64(a)+uint64(n) > uint64(len(s.mem)) {
		s.fault(a, n)
	}
	return s.mem[a : a+Addr(n)]
}

// fault is the outlined cold path of every accessor's bounds check, keeping
// the panic formatting out of the inlined fast paths.
//
//go:noinline
func (s *Space) fault(a Addr, n int) {
	if a == 0 {
		panic("heap: nil dereference")
	}
	if s.released {
		panic("heap: use of a released space")
	}
	panic(fmt.Sprintf("heap: access [%#x,+%d) beyond space %#x", a, n, len(s.mem)))
}

// Load64 reads the word at address a.
func (s *Space) Load64(a Addr) uint64 {
	if a == 0 || uint64(a)+8 > uint64(len(s.mem)) {
		s.fault(a, 8)
	}
	return binary.LittleEndian.Uint64(s.mem[a:])
}

// Store64 writes the word at address a.
func (s *Space) Store64(a Addr, v uint64) {
	if a == 0 || uint64(a)+8 > uint64(len(s.mem)) {
		s.fault(a, 8)
	}
	binary.LittleEndian.PutUint64(s.mem[a:], v)
}

// Load8 reads the byte at address a.
func (s *Space) Load8(a Addr) byte {
	if a == 0 || uint64(a) >= uint64(len(s.mem)) {
		s.fault(a, 1)
	}
	return s.mem[a]
}

// Store8 writes the byte at address a.
func (s *Space) Store8(a Addr, v byte) {
	if a == 0 || uint64(a) >= uint64(len(s.mem)) {
		s.fault(a, 1)
	}
	s.mem[a] = v
}

// Copy moves n bytes from src to dst within the space.
func (s *Space) Copy(dst, src Addr, n int) {
	copy(s.slice(dst, n), s.slice(src, n))
}

// Zero clears n bytes at address a.
func (s *Space) Zero(a Addr, n int) {
	b := s.slice(a, n)
	for i := range b {
		b[i] = 0
	}
}

// Bytes exposes n bytes at address a for direct manipulation.
func (s *Space) Bytes(a Addr, n int) []byte { return s.slice(a, n) }
