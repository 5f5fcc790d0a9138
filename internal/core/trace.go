package core

import (
	"fmt"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// The plain-claim tracer: every walk of the object graph that runs in one
// goroutine — so object claims are plain header stores — goes through it.
//
//   - The stop-the-world trace is N tracers ("lanes") drained round-robin
//     with deterministic work stealing. One lane is the serial collector:
//     its clock is the plan's clock and nothing is merged. With more lanes
//     each charges a private clock, and when the drain terminates the
//     counts merge into the main clock while simulated time advances by the
//     critical path (the slowest lane) — a logical simulation of a parallel
//     trace, so the same seed and lane count always produce the same
//     marking order, evacuation destinations and cycle totals. Evacuation
//     space (gcAlloc, block acquisition) stays on the main clock: it is the
//     serialized allocation seam a real parallel collector also contends on.
//   - A marking cycle (marking.go) runs the plan's own tracer with
//     evacuation off: the initial root scan, the bounded increments (which
//     arm the slot-granular deadline) and the final mark of both drivers.

// traceQuantum is how many gray objects a lane drains per scheduling
// round before the next lane runs; small enough to interleave lanes,
// large enough to amortize the round-robin sweep.
const traceQuantum = 64

type tracer struct {
	ix    *Immix
	clock *stats.Clock
	gray  []heap.Addr // mark stack
	// evacuate lets mark move objects out of defragmentation candidates.
	// Marking cycles turn it off: mutators hold addresses across increments.
	evacuate bool
	// deadline, when nonzero, interrupts scan between two slots once the
	// tracer's clock reaches it.
	deadline stats.Cycles
}

// trace is the stop-the-world mark/evacuate phase over the given number of
// lanes.
func (ix *Immix) trace(roots *RootSet, nursery bool, workers int) {
	ix.tr.gray = ix.tr.gray[:0]
	ix.tr.evacuate, ix.tr.deadline = true, 0
	lanes := []*tracer{&ix.tr}
	if workers > 1 {
		lanes = make([]*tracer, workers)
		for i := range lanes {
			lanes[i] = &tracer{ix: ix, clock: stats.NewClock(ix.clock.Costs()), evacuate: true}
		}
	}
	// Deterministic work-splitting: root i seeds lane i mod workers, and
	// during a nursery pass the logged objects round-robin the same way.
	for i, slot := range roots.slots {
		t := lanes[i%len(lanes)]
		t.clock.Charge1(stats.EvRootScan)
		if *slot != 0 {
			*slot = t.mark(*slot)
		}
	}
	if nursery {
		// Logged (mutated) old objects are nursery roots [8].
		for i, obj := range ix.modbuf {
			if fwd, ok := ix.model.Forwarded(obj); ok {
				obj = fwd
			}
			lanes[i%len(lanes)].scan(obj, 0)
		}
	}
	// Drain: round-robin over lanes, a quantum of objects each. An empty
	// lane steals the bottom half of the richest lane's gray stack (ties
	// broken by lane order), so load balances without any nondeterminism.
	for progressed := true; progressed; {
		progressed = false
		for _, t := range lanes {
			if len(t.gray) == 0 && !ix.stealInto(t, lanes) {
				continue
			}
			for q := 0; q < traceQuantum && len(t.gray) > 0; q++ {
				t.scan(t.pop(), 0)
			}
			progressed = true
		}
	}
	ix.consumeModbuf()
	if len(lanes) == 1 {
		return
	}
	// Merge lanes in order: event counts sum (the activity breakdown stays
	// complete), time advances by the critical path.
	var crit, work stats.Cycles
	for _, t := range lanes {
		ix.clock.Merge(t.clock)
		crit = max(crit, t.clock.Now())
		work += t.clock.Now()
	}
	ix.clock.Advance(crit)
	ix.gcstats.TraceWorkCycles += work
	ix.gcstats.TraceCritCycles += crit
	ix.gcstats.ParallelTraces++
}

// stealInto moves the bottom half of the richest lane's gray stack into
// the empty lane t. Stealing from the bottom takes the oldest (widest)
// work, the classic work-stealing heuristic. Reports whether anything
// moved.
func (ix *Immix) stealInto(t *tracer, lanes []*tracer) bool {
	var victim *tracer
	for _, v := range lanes {
		if v == t || len(v.gray) < 2 {
			continue
		}
		if victim == nil || len(v.gray) > len(victim.gray) {
			victim = v
		}
	}
	if victim == nil {
		return false
	}
	half := len(victim.gray) / 2
	t.gray = append(t.gray, victim.gray[:half]...)
	victim.gray = append(victim.gray[:0], victim.gray[half:]...)
	ix.gcstats.TraceSteals++
	return true
}

// consumeModbuf un-logs and drops the modified-object buffer; every
// collection and every marking cycle consumes it.
func (ix *Immix) consumeModbuf() {
	for _, obj := range ix.modbuf {
		if fwd, ok := ix.model.Forwarded(obj); ok {
			obj = fwd
		}
		ix.model.SetLogged(obj, false)
	}
	ix.modbuf = ix.modbuf[:0]
}

func (t *tracer) pop() heap.Addr {
	obj := t.gray[len(t.gray)-1]
	t.gray = t.gray[:len(t.gray)-1]
	return obj
}

// drain scans gray objects until the stack is empty.
func (t *tracer) drain() {
	for len(t.gray) > 0 {
		t.scan(t.pop(), 0)
	}
}

// scan visits obj's reference slots from index from — a fixed type's
// RefOffsets or a reference array's elements, walked in place — marking
// children and rewriting slots whose referents moved. It returns -1 when
// the scan completed, or the slot index to resume from when the deadline
// interrupted it.
//
// With no deadline armed and no probe listening, nothing can observe the
// clock between two slots, so the object's EvObjectScan charges are one
// Charge; otherwise each slot charges before it is visited, so a deadline
// interrupts and a probe reads the clock exactly where per-slot charging
// puts them.
func (t *tracer) scan(obj heap.Addr, from int) int {
	m, clock, deadline := t.ix.model, t.clock, t.deadline
	ty := m.TypeOf(obj)
	n := m.RefCountOf(ty, obj)
	batch := deadline == 0 && t.ix.probe == nil
	if batch && n > from {
		clock.Charge(stats.EvObjectScan, uint64(n-from))
	}
	for i := from; i < n; i++ {
		if !batch {
			if deadline != 0 && clock.Now() >= deadline {
				return i
			}
			clock.Charge1(stats.EvObjectScan)
		}
		slot := obj + heap.ArrayHeaderSize + heap.Addr(i*heap.WordSize)
		if ty.Kind == heap.KindFixed {
			slot = obj + heap.Addr(ty.RefOffsets[i])
		}
		child := heap.Addr(m.S.Load64(slot))
		if child == 0 {
			continue
		}
		if moved := t.mark(child); moved != child {
			m.S.Store64(slot, uint64(moved))
		}
	}
	return -1
}

// mark marks the object at a — evacuating it when it sits on a
// defragmentation candidate and the tracer may move objects, in place
// otherwise — and returns its current address. Forwarding, epoch, pin and
// size come from one load of the header; it is loaded again only after a
// GCTraceMark probe, whose listener may have rewritten it.
func (t *tracer) mark(a heap.Addr) heap.Addr {
	ix := t.ix
	s := ix.model.S
	h := s.Load64(a)
	if fwd, ok := heap.HeaderForwarded(h); ok {
		a = fwd
		h = s.Load64(a)
	}
	if heap.HeaderEpoch(h) == ix.epoch {
		return a // already marked (or old, during a nursery pass)
	}
	b := ix.blockOf(a)
	if b == nil {
		// Large object: stamped in place, never moved.
		if !ix.los.contains(a) {
			panic(fmt.Sprintf("core: reference %#x outside managed space", a))
		}
	} else if b.evacuate && t.evacuate && !heap.HeaderPinned(h) {
		// Opportunistic: when no space can be found the object is marked in
		// place instead.
		if to, ok := t.evacuateObject(a, heap.SizeFromHeader(h)); ok {
			return to
		}
	}
	if ix.probe != nil {
		ix.probe(probe.GCTraceMark, uint64(a))
		h = s.Load64(a)
	}
	t.markInPlace(a, h, b)
	return a
}

// markInPlace stamps the object and its lines at the current epoch and
// pushes it gray when it has reference slots. It fires no probe: the SATB
// barrier blackens through it at the buffer cap, and marking work the
// write barrier performs must not give fault-injection hooks a re-entry
// point mid-store. h is the object's header as last loaded.
func (t *tracer) markInPlace(a heap.Addr, h uint64, b *block) {
	ix := t.ix
	ix.model.S.Store64(a, heap.HeaderWithEpoch(h, ix.epoch))
	ty, size := ix.model.TypeFromHeader(h), heap.SizeFromHeader(h)
	t.clock.Charge1(stats.EvObjectMark)
	ix.gcstats.ObjectsMarked++
	ix.gcstats.BytesMarkedLive += uint64(size)
	if b != nil {
		b.markLines(b.mem.Base, a, size, ix.lineShift, ix.epoch)
	}
	if ix.model.RefCountOf(ty, a) > 0 {
		t.gray = append(t.gray, a)
	}
}

// evacuateObject copies a live object out of a defragmentation candidate,
// reporting false when no destination space is left.
func (t *tracer) evacuateObject(a heap.Addr, size int) (heap.Addr, bool) {
	ix := t.ix
	to, ok := ix.gcAlloc(size, true)
	if !ok {
		return 0, false
	}
	if ix.probe != nil {
		ix.probe(probe.GCEvacuate, uint64(a))
	}
	ix.model.S.Copy(to, a, size)
	ix.model.Forward(a, to)
	ty, _ := ix.model.Stamp(to, ix.epoch)
	nb := ix.blockOf(to)
	nb.markLines(nb.mem.Base, to, size, ix.lineShift, ix.epoch)
	t.clock.Charge(stats.EvBytesCopied, uint64(size))
	t.clock.Charge1(stats.EvObjectMark)
	ix.gcstats.ObjectsMarked++
	ix.gcstats.ObjectsEvacuated++
	ix.gcstats.BytesEvacuated += uint64(size)
	ix.gcstats.BytesMarkedLive += uint64(size)
	if ix.model.RefCountOf(ty, to) > 0 {
		t.gray = append(t.gray, to)
	}
	return to, true
}

// gcAlloc bump-allocates evacuation space from the headroom and any other
// free or recycled non-candidate block, and — when grow is set — from fresh
// memory; failing that, evacuation stops.
func (ix *Immix) gcAlloc(size int, grow bool) (heap.Addr, bool) {
	if ix.gc.fits(size) {
		return ix.gc.bump(size), true
	}
	for {
		if ix.gc.b != nil && ix.advanceHole(ix.clock, &ix.gc, size) {
			return ix.gc.bump(size), true
		}
		b := ix.popFree(true)
		if b == nil {
			b = ix.popRecycledNonCandidate()
		}
		if b == nil {
			if !grow {
				return 0, false
			}
			nb, err := ix.acquireBlock(ix.clock, false)
			if err != nil {
				return 0, false
			}
			b = nb
		}
		ix.gc.install(b)
	}
}

func (ix *Immix) popRecycledNonCandidate() *block {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, b := range ix.recycled {
		if !b.evacuate && b.freeLines > 0 {
			ix.recycled = append(ix.recycled[:i], ix.recycled[i+1:]...)
			b.inRecycle = false
			return b
		}
	}
	return nil
}
