package heap

import (
	"sync/atomic"
	"unsafe"
)

// Atomic word access into the simulated space, for the threaded execution
// engine: concurrent trace workers claim objects by CAS-ing their headers,
// and concurrent mutators set the logged flag with a CAS instead of the
// serial read-modify-write. The operations view the backing bytes as host
// uint64s, which matches the little-endian encoding Load64/Store64 use on
// every supported platform (linux/amd64, linux/arm64); a big-endian port
// would need byte-swapping here.
//
// Addresses must be word-aligned. Object headers always are (allocation
// sizes are word-aligned and blocks are page-aligned), so the callers never
// trip the check in practice.

// word bounds-checks a and returns a pointer suitable for atomic access.
func (s *Space) word(a Addr) *uint64 {
	if a == 0 || uint64(a)+WordSize > uint64(len(s.mem)) {
		s.fault(a, WordSize)
	}
	if a%WordSize != 0 {
		panic("heap: atomic access to unaligned address")
	}
	return (*uint64)(unsafe.Pointer(&s.mem[a]))
}

// AtomicLoad64 reads the word at a with acquire semantics.
func (s *Space) AtomicLoad64(a Addr) uint64 { return atomic.LoadUint64(s.word(a)) }

// AtomicStore64 writes the word at a with release semantics.
func (s *Space) AtomicStore64(a Addr, v uint64) { atomic.StoreUint64(s.word(a), v) }

// Cas64 compare-and-swaps the word at a.
func (s *Space) Cas64(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(s.word(a), old, new)
}

// FlagClaimBusy is the transient claim bit of the concurrent trace: the
// worker that wins the CAS setting it owns the object's evacuation; losers
// spin until the bit clears (in-place fallback) or the forwarded flag
// appears. The bit never survives a collection — every exit path of the
// claim protocol stores a header without it.
const FlagClaimBusy = 1 << 3

// Header returns the object header at a with a single atomic load.
func (m *Model) Header(a Addr) uint64 { return m.S.AtomicLoad64(a) }

// CasHeader compare-and-swaps the object header at a.
func (m *Model) CasHeader(a Addr, old, new uint64) bool { return m.S.Cas64(a, old, new) }

// StoreHeader writes the object header at a with release semantics.
func (m *Model) StoreHeader(a Addr, h uint64) { m.S.AtomicStore64(a, h) }

// Header-value decoders, for code that holds a loaded header and must not
// re-read it (a concurrent CAS may have changed it since).

// HeaderForwarded decodes a forwarding header.
func HeaderForwarded(h uint64) (Addr, bool) {
	if h&flagForwarded == 0 {
		return 0, false
	}
	return Addr(h >> 8), true
}

// HeaderEpoch extracts the sticky mark epoch.
func HeaderEpoch(h uint64) uint16 { return uint16(h >> 8) }

// HeaderPinned reports the pin flag.
func HeaderPinned(h uint64) bool { return h&flagPinned != 0 }

// HeaderBusy reports the transient concurrent-trace claim bit.
func HeaderBusy(h uint64) bool { return h&FlagClaimBusy != 0 }

// HeaderWithEpoch returns h restamped at epoch e with the busy bit cleared.
func HeaderWithEpoch(h uint64, e uint16) uint64 { return withEpoch(h&^FlagClaimBusy, e) }

// withEpoch returns h restamped at epoch e.
func withEpoch(h uint64, e uint16) uint64 { return h&^uint64(0xFFFF<<8) | uint64(e)<<8 }

// ForwardHeader builds the forwarding header referring to new.
func ForwardHeader(new Addr) uint64 { return uint64(new)<<8 | flagForwarded }

// TypeFromHeader resolves the type encoded in a loaded header.
func (m *Model) TypeFromHeader(h uint64) *Type { return m.T.ByIndex(uint16(h >> 24 & 0xFFFF)) }

// SizeFromHeader extracts the total object size from a loaded header.
func SizeFromHeader(h uint64) int { return int(h >> 40) }

// TrySetLoggedAtomic sets the logged flag with a CAS loop, reporting true
// when this caller performed the transition — the threaded write barrier's
// claim on the modified-object buffer entry. Concurrent setters of other
// header bits retry; a concurrent logger wins exactly once.
func (m *Model) TrySetLoggedAtomic(a Addr) bool {
	for {
		h := m.S.AtomicLoad64(a)
		if h&flagLogged != 0 {
			return false
		}
		if m.S.Cas64(a, h, h|flagLogged) {
			return true
		}
	}
}

// SetPinnedAtomic sets the pin flag with a CAS loop: on the threaded
// engine a mutator pins while other mutators' write barriers CAS the
// logged bit of the same header, so the plain read-modify-write of
// SetPinned could silently drop their claim.
func (m *Model) SetPinnedAtomic(a Addr) {
	for {
		h := m.S.AtomicLoad64(a)
		if h&flagPinned != 0 {
			return
		}
		if m.S.Cas64(a, h, h|flagPinned) {
			return
		}
	}
}

// RefSlotsOf is RefSlots with the object's type already decoded from a
// loaded header (the concurrent trace must not re-read headers another
// worker may be CAS-ing).
func (m *Model) RefSlotsOf(ty *Type, a Addr, buf []Addr) []Addr {
	switch ty.Kind {
	case KindFixed:
		for _, off := range ty.RefOffsets {
			buf = append(buf, a+Addr(off))
		}
	case KindRefArray:
		n := m.ArrayLen(a)
		for i := 0; i < n; i++ {
			buf = append(buf, a+ArrayHeaderSize+Addr(i*WordSize))
		}
	}
	return buf
}
