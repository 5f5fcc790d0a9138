package verify

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"wearmem/internal/failmap"
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

// HeapReference is Heap as first written — a map for the visited set, the
// referring object's description formatted for every reference slot, the
// spans sorted with sort.Slice, the OS table asked once per line — kept as
// the oracle Heap is held to. (It panics on a reference within a header of
// 2^64, which Heap reports.)
func HeapReference(t Target, opt Options) *Report {
	rep := &Report{}
	var spans []span
	if !opt.SkipGraph && t.Model != nil && t.Roots != nil {
		spans = referenceWalkGraph(t, rep)
		referenceCheckOverlap(spans, rep)
	}
	if t.Views != nil {
		referenceCheckLineStates(t, spans, opt, rep)
	}
	if t.Kernel != nil && t.Views != nil && !opt.SkipKernelTable {
		referenceCheckKernelTable(t, rep)
	}
	if t.Device != nil && !opt.SkipBuffer {
		checkBuffer(t.Device, rep)
	}
	if t.Contexts != nil {
		checkMutators(t.Contexts, rep)
	}
	if t.Policy != nil {
		checkPolicy(t.Policy, rep)
	}
	return rep
}

// span is one reachable object's extent.
type span struct {
	a    heap.Addr
	size int
}

func referenceWalkGraph(t Target, rep *Report) []span {
	rep.Checks++
	m := t.Model
	size := m.S.Size()
	visited := make(map[heap.Addr]bool)
	var stack []heap.Addr
	push := func(a heap.Addr, from string) {
		if a == 0 || visited[a] {
			return
		}
		if a+heap.HeaderSize > size {
			rep.add("graph", "reference %#x from %s points outside the space (size %#x)", a, from, size)
			return
		}
		visited[a] = true
		stack = append(stack, a)
	}
	t.Roots.Each(func(slot *heap.Addr) { push(*slot, "roots") })

	var spans []span
	var refbuf []heap.Addr
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h := m.S.Load64(a)
		if _, fwd := m.Forwarded(a); fwd {
			rep.add("graph", "reachable reference %#x holds a forwarding pointer (stale after evacuation)", a)
			continue
		}
		ty, ok := m.T.Lookup(uint16(h >> 24 & 0xFFFF))
		if !ok {
			rep.add("graph", "object %#x has unregistered type index %d", a, uint16(h>>24&0xFFFF))
			continue
		}
		osize := int(h >> 40)
		if osize < heap.HeaderSize || heap.Addr(osize) > size-a {
			rep.add("graph", "object %#x (%s) has impossible size %d", a, ty.Name, osize)
			continue
		}
		switch ty.Kind {
		case heap.KindFixed:
			if osize != heap.FixedSize(ty) {
				rep.add("graph", "object %#x: size %d does not match fixed type %s (%d)",
					a, osize, ty.Name, heap.FixedSize(ty))
				continue
			}
		default:
			if osize < heap.ArrayHeaderSize {
				rep.add("graph", "array %#x (%s) smaller than the array header", a, ty.Name)
				continue
			}
			n := m.ArrayLen(a)
			if n < 0 || heap.ArraySize(ty, n) != osize {
				rep.add("graph", "array %#x (%s): %d elements inconsistent with size %d",
					a, ty.Name, n, osize)
				continue
			}
		}
		if t.Epoch != 0 && m.Epoch(a) != t.Epoch {
			rep.add("epoch", "reachable object %#x (%s) carries epoch %d, want %d",
				a, ty.Name, m.Epoch(a), t.Epoch)
		}
		rep.Objects++
		spans = append(spans, span{a: a, size: osize})
		refbuf = m.RefSlots(a, refbuf[:0])
		for _, slot := range refbuf {
			push(heap.Addr(m.S.Load64(slot)), fmt.Sprintf("%#x (%s)", a, ty.Name))
		}
	}
	return spans
}

func referenceCheckOverlap(spans []span, rep *Report) {
	rep.Checks++
	sort.Slice(spans, func(i, j int) bool { return spans[i].a < spans[j].a })
	for i := 1; i < len(spans); i++ {
		prev, cur := spans[i-1], spans[i]
		if prev.a+heap.Addr(prev.size) > cur.a {
			rep.add("overlap", "objects %#x (+%d) and %#x overlap", prev.a, prev.size, cur.a)
		}
	}
}

func referenceCheckLineStates(t Target, spans []span, opt Options, rep *Report) {
	rep.Checks++
	for _, v := range t.Views {
		free, failed := 0, 0
		for _, s := range v.States {
			switch s {
			case LineFree:
				free++
			case LineFailed:
				failed++
			}
		}
		if free != v.FreeLines {
			rep.add("line-state", "block %#x: %d free lines in states, counter says %d",
				v.Base, free, v.FreeLines)
		}
		if failed != v.Failed {
			rep.add("line-state", "block %#x: %d failed lines in states, counter says %d",
				v.Base, failed, v.Failed)
		}
	}
	if opt.SkipGraph {
		return
	}
	for _, sp := range spans {
		v := viewOf(t.Views, uint64(sp.a))
		if v == nil {
			continue // LOS or mark-sweep space
		}
		first := int(uint64(sp.a)-v.Base) / v.LineSize
		last := int(uint64(sp.a)+uint64(sp.size)-1-v.Base) / v.LineSize
		if last >= len(v.States) {
			last = len(v.States) - 1
		}
		for l := first; l <= last; l++ {
			switch v.States[l] {
			case LineFree:
				rep.add("line-state", "reachable object %#x overlaps free line %d of block %#x",
					sp.a, l, v.Base)
			case LineFailed:
				if !opt.SkipFailedLine {
					rep.add("failed-line", "reachable object %#x overlaps failed line %d of block %#x",
						sp.a, l, v.Base)
				}
			}
		}
	}
}

func referenceCheckKernelTable(t Target, rep *Report) {
	rep.Checks++
	for _, v := range t.Views {
		for l, s := range v.States {
			vaddr := v.Base + uint64(l*v.LineSize)
			frame, off, ok := t.Kernel.Translate(vaddr)
			if !ok {
				rep.add("kernel-table", "block %#x line %d is unmapped at %#x", v.Base, l, vaddr)
				continue
			}
			bm := t.Kernel.FrameFailedLines(frame)
			bits := v.LineSize / failmap.LineSize
			mask := (uint64(1)<<uint(bits) - 1) << uint(off/failmap.LineSize)
			switch {
			case s != LineFailed && bm&mask != 0:
				rep.add("kernel-table",
					"block %#x line %d (%c) is usable to the runtime but the OS table marks %#x failed (frame %d)",
					v.Base, l, s, bm&mask, frame)
			case s == LineFailed && bm&mask == 0:
				rep.add("kernel-table",
					"block %#x line %d is retired but its OS backing (frame %d) is clean",
					v.Base, l, frame)
			}
		}
	}
}

// RecoveredReference is Recovered as first written — the device asked
// about one line at a time — kept as the oracle Recovered is held to. The
// device must also answer per line (Unavailable), as *pcm.Device does.
func RecoveredReference(t RecoveredTarget) *Report {
	rep := &Report{}
	if t.Pool != nil && t.Scan != nil {
		referenceCheckRecoveredTable(t, rep)
	}
	if t.Scan != nil {
		rep.Checks++
		if n := t.Scan.BufferLen(); n != 0 {
			rep.add("recovered-buffer", "%d orphaned failure-buffer entries still parked after recovery", n)
		}
	}
	if t.Clusters != nil {
		rep.Checks++
		if err := t.Clusters.ValidateClusters(); err != nil {
			rep.add("cluster-map", "restored redirection maps corrupt: %v", err)
		}
	}
	return rep
}

func referenceCheckRecoveredTable(t RecoveredTarget, rep *Report) {
	rep.Checks++
	scan := t.Scan.(interface{ Unavailable(line int) bool })
	pages := t.Pool.PCMPages()
	devLines := t.Scan.Lines()
	for p := 0; p < pages; p++ {
		bm := t.Pool.FrameFailedLines(p)
		for l := 0; l < failmap.LinesPerPage; l++ {
			line := p*failmap.LinesPerPage + l
			if line >= devLines {
				return
			}
			tableFailed := bm&(1<<uint(l)) != 0
			devFailed := scan.Unavailable(line)
			switch {
			case devFailed && !tableFailed:
				rep.add("recovered-table",
					"resurrected failed line: device line %d (frame %d line %d) is failed but the recovered table is clean",
					line, p, l)
			case tableFailed && !devFailed:
				rep.add("recovered-table",
					"recovered table marks frame %d line %d failed but device line %d is working",
					p, l, line)
			}
		}
	}
}
