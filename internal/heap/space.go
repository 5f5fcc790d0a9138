// Package heap provides the simulated address space and object model the
// collectors operate on.
//
// The managed heap of the reproduction lives in a flat simulated virtual
// address space backed by host memory (the paper likewise executes on DRAM
// and injects faults, §5): an anonymous mapping outside the Go heap where
// the host has mmap and the race detector is off, a Go byte slice
// otherwise. The backing is sized once, to the virtual limit the kernel
// states, and never moves, so a slice into it stays valid for the life of
// the space. Objects carry a one-word header holding flags, a
// sticky mark epoch, a type index and the object size; reference fields are
// located through type descriptors, giving the collectors an exact object
// map. Address 0 is the nil reference.
package heap

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Addr is a virtual address in the simulated heap. 0 is nil.
type Addr uint64

// WordSize is the size of a reference slot and of the object header.
const WordSize = 8

// Space is the simulated virtual address space. Pages are materialized on
// demand as the kernel maps regions at increasing virtual addresses, all
// below a limit the space is made for.
//
// A space has a lifecycle: NewSpace adopts the backing a finished run
// parked with Release, so back-to-back simulator runs reuse one mapping
// instead of each mapping and zeroing its own. A space that is never
// released gives its backing back when the garbage collector finds it
// unreachable.
//
// The backing is one mapping (mapBacking) covering the limit, made or
// adopted once and never moved: len(mem) is what is addressable, cap(mem)
// the mapping. Where it lies outside the Go heap, a page costs resident
// memory only once touched, and the space does not count toward the heap
// size that paces Go's collector — with it inside, every run's peak RSS
// was about twice what the simulation held.
type Space struct {
	mem []byte
	// mapped is the high-water mark of Ensure: nothing above it was ever
	// mapped, so nothing above it was ever written, and Release clears no
	// further. Reserve's tail beyond it is zero and stays untouched.
	mapped Addr
	// released marks a space whose backing went back to the free list;
	// mem is nil from then on, so every accessor faults.
	released bool
}

// mappings counts the backings mapBacking handed out and unmapBacking has
// not taken back, parked ones included.
var mappings atomic.Int64

// parked is the free list of released backings. Every byte of a parked
// backing's capacity is zero, and its length is zero. A backing enters
// only through Release and leaves at the next NewSpace, adopted or
// unmapped, so the list never holds more entries than spaces were open at
// once — which bounds the memory it retains without a size limit to tune.
var parked struct {
	sync.Mutex
	backings [][]byte
}

// DefaultLimit is the limit of a space made by NewSpace: the heap models
// tests and benchmarks build by hand. A runtime states its own limit, the
// kernel's VirtualLimit, to NewSpaceBelow.
const DefaultLimit Addr = 64 << 20

// NewSpace returns an empty address space for addresses below
// DefaultLimit.
func NewSpace() *Space { return NewSpaceBelow(DefaultLimit) }

// NewSpaceBelow returns an empty address space for addresses below limit.
// It adopts the largest parked backing when that covers limit; otherwise
// it unmaps that backing and maps limit bytes fresh.
func NewSpaceBelow(limit Addr) *Space {
	parked.Lock()
	var mem []byte
	if n := len(parked.backings); n > 0 {
		slices.SortFunc(parked.backings, func(a, b []byte) int { return cap(a) - cap(b) })
		mem = parked.backings[n-1]
		parked.backings = slices.Delete(parked.backings, n-1, n)
	}
	parked.Unlock()
	if uint64(cap(mem)) < uint64(limit) {
		if cap(mem) > 0 {
			unmapBacking(mem)
		}
		mem = mapBacking(int(limit))[:0]
	}
	s := &Space{mem: mem}
	runtime.SetFinalizer(s, (*Space).drop)
	return s
}

// drop is the finalizer of a space nobody released: it unmaps the backing,
// which no accessor can reach any more.
func (s *Space) drop() {
	if !s.released && cap(s.mem) > 0 {
		unmapBacking(s.mem)
	}
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
// panics and Size is 0; releasing twice is harmless.
func (s *Space) Release() {
	if s.released {
		return
	}
	mem, mapped := s.mem, s.mapped
	s.mem, s.mapped, s.released = nil, 0, true
	clear(mem[:mapped])
	parked.Lock()
	parked.backings = append(parked.backings, mem[:0])
	parked.Unlock()
}

// Ensure maps the addresses below limit, which read as zero until written:
// the backing beyond len is zero — fresh from mapBacking, or cleared by the
// Release that parked it — and has not been exposed since. It is a reslice
// within the backing, which covers the limit the space was made for; a
// limit past the backing is a bug in the caller.
func (s *Space) Ensure(limit Addr) {
	if uint64(limit) > uint64(len(s.mem)) {
		if s.released {
			panic("heap: use of a released space")
		}
		if uint64(limit) > uint64(cap(s.mem)) {
			panic(fmt.Sprintf("heap: Ensure(%#x) past the space's backing %#x", limit, cap(s.mem)))
		}
		s.mem = s.mem[:limit]
	}
	s.mapped = max(s.mapped, limit)
}

// Reserve makes the whole backing addressable now, so that no later Ensure
// changes len(mem): the threaded engine's mutators bounds-check against it
// with no lock while another maps. Only the pages a run touches become
// resident (on a Go-heap backing, the runtime cleared the whole make when
// it handed it out).
func (s *Space) Reserve() { s.mem = s.mem[:cap(s.mem)] }

// Size returns the mapped high-water mark: every address below it was
// covered by some Ensure.
func (s *Space) Size() Addr { return s.mapped }

// slice is the n bytes at address a, in the backing itself. The slice is
// valid until Release and only while the caller holds the space: the
// finalizer unmaps the backing it points into, and a later access through
// it is a segmentation fault, not a stale read.
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

// faultWord is fault for an 8-byte access. Passing one argument fewer is
// what keeps Load64 and Store64 within the inliner's budget (cost 80).
//
//go:noinline
func (s *Space) faultWord(a Addr) { s.fault(a, 8) }

// Load64 reads the word at address a.
func (s *Space) Load64(a Addr) uint64 {
	if a == 0 || uint64(a)+8 > uint64(len(s.mem)) {
		s.faultWord(a)
	}
	return binary.LittleEndian.Uint64(s.mem[a:])
}

// Store64 writes the word at address a.
func (s *Space) Store64(a Addr, v uint64) {
	if a == 0 || uint64(a)+8 > uint64(len(s.mem)) {
		s.faultWord(a)
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

// Bytes exposes n bytes at address a for direct manipulation. Like slice,
// the slice is valid until Release and only while the caller holds the
// space.
func (s *Space) Bytes(a Addr, n int) []byte { return s.slice(a, n) }
