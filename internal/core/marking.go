package core

import (
	"fmt"

	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
)

// The marking cycle: bounded-pause full collections.
//
// A full sticky-Immix collection is split into a resumable state machine
// with one skeleton and two drivers:
//
//	BeginMark      short STW: epoch bump, full root scan, arm the SATB
//	               barrier (marking = true); with markers > 0 also
//	               pre-stamp the blocks and spawn the marker goroutines
//	(window)       increments driver (baton engine): MarkIncrement drains
//	               shaded refs and the gray stack for at most its budget
//	               of simulated cycles, repeated between mutator turns
//	               markers driver (threaded engine): CAS-claim trace
//	               workers race the mutators on otherwise idle cores
//	FinishMark     short STW: join the markers, root re-scan, drain the
//	               remaining logged objects, shades and gray objects,
//	               non-evacuating sweep
//
// Soundness is snapshot-at-the-beginning. While the window is open:
//
//   - the deletion barrier (Shade/ShadeOn, called by the VM before every
//     reference-slot overwrite) records the ref being destroyed, so no
//     path that existed at the snapshot can disappear unobserved — the
//     only way to hide a live object behind an already-scanned black
//     object requires deleting its original path, and that deletion is
//     shaded;
//   - new objects are allocated black (Immix.allocBlack): the sweep
//     recomputes line availability purely from mark bitmaps, so newborns
//     must look like marked survivors;
//   - roots need no barrier: every root is scanned STW at Begin, and
//     re-scanned at Finish as defense in depth (a root store's old value
//     is covered by the snapshot; its new value is either snapshot-live,
//     alloc-black, or reachable from another root at Finish);
//   - the sticky logging barrier keeps running in parallel, and Finish
//     re-scans every logged object — belt and braces over the shades.
//
// Marking cycles never evacuate — not even on blocks a dynamic line failure
// flagged mid-window — so mutator-held addresses stay valid while the
// window is open. Defragmentation remains the STW full collection's job;
// evacuate flags survive the cycle's sweep (sweepPreservingEvac) so the
// next STW full collection still vacates flagged blocks.
//
// Under the markers driver, reference-slot stores and marker loads go
// through atomic word access (the VM switches store discipline), per-
// context SATB buffers are drained only at Finish, and block acquisition
// is gated (acquireBlock fails with ErrMarkInProgress) so the dense block
// index never grows under the markers' lock-free lookups and every block
// stays pre-stamped; the allocation slow path completes the cycle and
// retries. Marker work merges as counts without advancing simulated time:
// the model is marking on otherwise-idle cores, which is the throughput
// story the pausecurve experiment quantifies (the work remains visible in
// TraceWorkCycles/TraceCritCycles and the activity breakdown).
//
// Every probe that can re-enter the collector (GCTraceMark during
// increments, GCMarkIncrement at increment and STW boundaries) fires while
// the VM holds its busy guard or the stopped world, so injected failure
// up-calls defer to the next safepoint instead of recursing into marking
// state. Barriers and marker goroutines fire no probes.

// Marking reports whether a marking window is open (mutators are running
// against a partially marked heap).
func (ix *Immix) Marking() bool { return ix.marking.Load() }

// MarkDone reports whether the marker goroutines have drained all gray
// work; the next allocation point should stop the world and FinishMark.
func (ix *Immix) MarkDone() bool { return ix.markers != nil && ix.markers.idle() }

// BeginMark opens a marking window: a short STW phase that bumps the epoch,
// consumes the modified-object log, scans all roots gray and arms the SATB
// barrier. With markers == 0 the caller drives the cycle with MarkIncrement;
// otherwise that many marker goroutines are running when it returns (the
// world must be stopped around the call). Returns false when the plan is
// degraded, already marking, or out of epochs.
func (ix *Immix) BeginMark(roots *RootSet, markers int) bool {
	if !ix.cfg.Generational {
		panic("core: a marking cycle requires Generational (the sticky write barrier is the SATB logging channel)")
	}
	if ix.degraded != nil || ix.marking.Load() {
		return false
	}
	start := ix.clock.Now()
	// Bounded cycles pay the stop/start bookkeeping per pause
	// (EvMarkIncrement at Begin, every increment, and Finish) instead of
	// the STW collection's one-shot EvGCCycle lump — a budget cannot bound
	// a pause below a fixed 40K-cycle floor.
	ix.clock.Charge1(stats.EvMarkIncrement)
	ix.collecting = true
	if ix.probe != nil {
		ix.probe(probe.GCBegin, 0)
	}
	if !ix.bumpEpoch() {
		ix.collecting = false
		return false
	}
	ix.gcstats.Collections++
	ix.gcstats.FullCollections++
	if markers > 0 {
		ix.gcstats.ConcurrentCycles++
	} else {
		ix.gcstats.IncrementalCycles++
	}

	// The pre-cycle modified-object log is consumed: a full-heap mark
	// rediscovers everything it pointed at, and the logged bit becomes
	// the window's dedup bit for the barrier.
	ix.drainContextModbufs()
	ix.consumeModbuf()
	ix.rescan = ix.rescan[:0]
	ix.satb = ix.satb[:0]
	ix.partialObj, ix.partialSlot = 0, 0

	// Full STW root scan: every root is gray before any mutator resumes,
	// so root mutations during the window need no barrier.
	t := &ix.tr
	t.gray = t.gray[:0]
	t.evacuate, t.deadline = false, 0
	t.markRoots(roots)
	if markers > 0 {
		// Markers and black-allocating mutators OR line bits atomically and
		// must never race a lazy epoch clear.
		ix.prestampBlocks()
		ix.markers = ix.newCASTrace(markers, false)
		for i, obj := range t.gray {
			w := ix.markers.workers[i%markers]
			w.deque = append(w.deque, obj)
		}
		t.gray = t.gray[:0]
		ix.markers.spawn(ix.markers.drain)
	}
	ix.marking.Store(true)
	ix.collecting = false
	p := ix.clock.Now() - start
	ix.gcstats.recordPause(p)
	ix.gcstats.PauseFinalHist.Record(p)
	ix.gcstats.TraceCycles += p
	if markers > 0 && ix.probe != nil {
		ix.probe(probe.GCMarkIncrement, 1)
	}
	return true
}

// markRoots marks every root's referent. The slots are only read: nothing
// moves inside a marking cycle.
func (t *tracer) markRoots(roots *RootSet) {
	for _, slot := range roots.slots {
		t.clock.Charge1(stats.EvRootScan)
		if *slot != 0 {
			t.mark(*slot)
		}
	}
}

// MarkIncrement drains marking work for at most budget simulated cycles
// (unbounded when budget <= 0) and reports whether the cycle's visible
// work is exhausted — the caller's signal to run FinishMark. Each increment
// is one mutator-visible pause: it pays the fixed EvMarkIncrement
// start/stop cost and its duration feeds the pause histograms.
func (ix *Immix) MarkIncrement(budget int) bool {
	t := &ix.tr
	start := ix.clock.Now()
	ix.clock.Charge1(stats.EvMarkIncrement)
	ix.gcstats.MarkIncrements++
	if budget > 0 {
		t.deadline = start + stats.Cycles(budget)
	}
	for t.deadline == 0 || ix.clock.Now() < t.deadline {
		if ix.partialObj != 0 {
			// Resume the object the previous increment left half-scanned.
			if next := t.scan(ix.partialObj, ix.partialSlot); next >= 0 {
				ix.partialSlot = next
				break
			}
			ix.partialObj, ix.partialSlot = 0, 0
			continue
		}
		if n := len(ix.satb); n > 0 {
			// Shaded overwritten refs first: draining them every increment
			// bounds the SATB buffer to the writes between two increments.
			old := ix.satb[n-1]
			ix.satb = ix.satb[:n-1]
			t.mark(old)
			continue
		}
		if len(t.gray) == 0 {
			break
		}
		// A scan the deadline interrupts mid-object (a KV backing array,
		// say) records where to pick up, so the budget bounds pauses at
		// slot granularity. Mutations to the already-scanned prefix are
		// covered by the logged-object rescan at the final mark; deletions
		// from the unscanned suffix are shaded.
		obj := t.pop()
		if next := t.scan(obj, 0); next >= 0 {
			ix.partialObj, ix.partialSlot = obj, next
			break
		}
	}
	t.deadline = 0
	p := ix.clock.Now() - start
	ix.gcstats.recordPause(p)
	ix.gcstats.PauseMarkHist.Record(p)
	ix.gcstats.TraceCycles += p
	done := ix.partialObj == 0 && len(t.gray) == 0 && len(ix.satb) == 0
	if ix.probe != nil {
		addr := uint64(1)
		if done {
			addr = 0
		}
		ix.probe(probe.GCMarkIncrement, addr)
	}
	return done
}

// FinishMark is the cycle's STW termination: the markers (if any) are
// joined and their shards merged, roots are re-scanned, every still-logged
// object (the modbufs plus the entries the cap transferred to rescan) is
// re-scanned and un-logged, remaining shades and the gray stack drain to
// empty, the SATB closure check runs if configured, and the non-evacuating
// sweep reclaims unmarked lines. Under the markers driver the world must be
// stopped around the call.
func (ix *Immix) FinishMark(roots *RootSet) {
	if !ix.marking.Load() {
		return
	}
	t := &ix.tr
	markers := ix.markers
	if markers != nil {
		markers.join()
		// Leftover gray: shade-marks mutators pushed after the markers went
		// idle.
		for _, w := range markers.workers {
			t.gray = append(t.gray, w.deque...)
		}
		ix.markers = nil
	}
	start := ix.clock.Now()
	ix.clock.Charge1(stats.EvMarkIncrement)
	ix.collecting = true
	ix.marking.Store(false)
	t.markRoots(roots)
	if ix.partialObj != 0 {
		// Complete the half-scanned object left by the last increment.
		t.scan(ix.partialObj, 0)
		ix.partialObj, ix.partialSlot = 0, 0
	}
	// Logged objects were reachable when mutated (or allocated black), so
	// marking them is snapshot-sound; re-scanning them covers any refs
	// stored into them after the marker had already scanned them.
	ix.drainContextModbufs()
	ix.modbuf = append(ix.modbuf, ix.rescan...)
	ix.rescan = ix.rescan[:0]
	for _, obj := range ix.modbuf {
		t.scan(t.mark(obj), 0)
	}
	ix.consumeModbuf()
	for _, old := range ix.satb {
		t.mark(old)
	}
	ix.satb = ix.satb[:0]
	for _, mc := range ix.muts {
		for _, old := range mc.satb {
			t.mark(old)
		}
		mc.satb = mc.satb[:0]
	}
	t.drain()
	traceEnd := ix.clock.Now()
	ix.gcstats.TraceCycles += traceEnd - start
	if ix.cfg.StrictSATB {
		ix.checkSATB(roots)
	}
	freed := ix.sweepPreservingEvac()
	ix.gcstats.SweepCycles += ix.clock.Now() - traceEnd
	ix.gcstats.BytesReclaimed += uint64(freed)
	ix.gcstats.LinesReclaimed += uint64(freed / ix.cfg.LineSize)
	p := ix.clock.Now() - start
	ix.gcstats.recordPause(p)
	ix.gcstats.PauseFinalHist.Record(p)
	ix.collecting = false
	if ix.probe != nil {
		if markers != nil {
			ix.probe(probe.GCMarkIncrement, 0)
		}
		ix.probe(probe.GCEnd, 0)
	}
}

// CompleteMark synchronously completes the in-flight marking cycle,
// whichever driver opened it. An increment-driven cycle first runs one
// unbounded increment, so the outstanding marking work is accounted as a
// mark pause rather than folded into the final-mark pause. Callers hold
// the world stopped (threaded) or the busy guard (baton).
func (ix *Immix) CompleteMark(roots *RootSet) {
	if !ix.marking.Load() {
		return
	}
	if ix.markers == nil {
		ix.MarkIncrement(0)
	}
	ix.FinishMark(roots)
}

// Shade is the SATB deletion barrier's logging half on the baton engine:
// the VM calls it with the value a reference store is about to overwrite.
// It is a pure buffer append (or, at the cap, a probe-free blacken) — no
// probes fire and no scanning happens, so a barrier can never re-enter
// the collector.
func (ix *Immix) Shade(old heap.Addr) {
	if old == 0 || !ix.marking.Load() {
		return
	}
	s := ix.model.S
	h := s.Load64(old)
	if fwd, ok := heap.HeaderForwarded(h); ok {
		old = fwd
		h = s.Load64(old)
	}
	if heap.HeaderEpoch(h) == ix.epoch {
		return // already black this cycle
	}
	if len(ix.satb) >= ix.cfg.ModbufCap {
		// Cap hit: blacken the referent in place instead of growing the
		// buffer. Each object blackens at most once per cycle, so a
		// pure-write storm costs O(distinct objects), never an OOM.
		ix.tr.markInPlace(old, h, ix.blockOf(old))
		ix.gcstats.ForcedModbufDrains++
		return
	}
	ix.satb = append(ix.satb, old)
	if n := len(ix.satb); n > ix.gcstats.ModbufHighWater {
		ix.gcstats.ModbufHighWater = n
	}
}

// ShadeOn is the SATB deletion barrier on the threaded engine: the
// overwritten referent lands in the mutator context's private shade
// buffer, drained at FinishMark. At the ModbufCap the referent is blackened
// on the mutator's own stack instead, through a throwaway CAS-claim worker
// charging the mutator's clock shard; the claimed object joins a marker's
// deque (or, once the markers have exited, waits there for FinishMark).
func (ix *Immix) ShadeOn(mc *MutatorContext, old heap.Addr) {
	if old == 0 {
		return
	}
	h := ix.model.Header(old)
	if fwd, ok := heap.HeaderForwarded(h); ok {
		old = fwd
		h = ix.model.Header(old)
	}
	if heap.HeaderEpoch(h) == ix.epoch {
		return // already black this cycle
	}
	if len(mc.satb) < ix.cfg.ModbufCap {
		mc.satb = append(mc.satb, old)
		return
	}
	w := traceWorker{t: ix.markers, clock: mc.clock}
	w.mark(old)
	if w.objectsMarked == 0 {
		return // a marker won the claim
	}
	ix.markMu.Lock()
	ix.gcstats.ForcedModbufDrains++
	w.foldStats(&ix.gcstats)
	ix.markMu.Unlock()
	for _, a := range w.deque {
		ix.markers.workers[0].push(a)
	}
}

// sweepPreservingEvac runs the serial sweep with evacuation flags restored
// afterwards: block.sweep clears the flag, but marking cycles do not
// evacuate, so a flag planted by a dynamic line failure must survive for
// the next STW full collection to act on.
func (ix *Immix) sweepPreservingEvac() int {
	var evacs []*block
	for _, b := range ix.blocks.all {
		if b.evacuate {
			evacs = append(evacs, b)
		}
	}
	freed := ix.sweep(false, 1)
	for _, b := range evacs {
		b.evacuate = true
	}
	return freed
}

// checkSATB panics if any roots-reachable object survived the final mark
// unmarked — a hole in the snapshot-at-the-beginning argument. Enabled by
// Config.StrictSATB (torture campaigns and the soundness unit tests).
func (ix *Immix) checkSATB(roots *RootSet) {
	if fs := verify.SATBClosure(ix.model, roots, ix.epoch); len(fs) > 0 {
		panic(fmt.Sprintf("core: SATB invariant violated at final mark: %s (%d finding(s))", fs[0].String(), len(fs)))
	}
}
