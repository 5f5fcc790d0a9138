package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wearmem/internal/bitset"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// Immix implements the mark-region collector of Blackburn & McKinley [3]
// with the failure-aware extensions of §4 and, optionally, sticky-mark-bit
// generational collection (Sticky Immix, §4.1).
//
// Memory is organized as blocks of lines (Fig. 2). The bump allocator
// skips over unavailable lines — live, failed, or already claimed — which
// is exactly the mechanism the paper reuses to step around PCM holes.
// Medium objects that do not fit the current hole go to an overflow block;
// under failures the overflow allocator first searches the remainder of
// its block and only then requests perfect memory (§4.2). Objects larger
// than the LOS threshold live in the page-grained large object space.
// Collection marks objects and their lines, opportunistically evacuating
// objects from defragmentation candidates (reused verbatim to vacate
// dynamically failed lines).
type Immix struct {
	cfg   Config
	clock *stats.Clock
	model *heap.Model
	mem   Memory
	los   *los

	blocks blockIndex

	// mu is the narrow synchronization seam between mutator contexts and
	// the shared block state: the recycled/free lists, block-index
	// mutation, and block acquisition/release go through it. Index *reads*
	// (the barrier and mark hot paths) stay lock-free: mutators are
	// serialized by the deterministic scheduler and collections are
	// stop-the-world, so a lookup never races an insert. The clock is
	// likewise single-owner and is never charged under mu.
	mu sync.Mutex

	recycled []*block // partially free blocks, address order
	free     []*block // completely free blocks retained as defrag headroom

	// muts holds the attached allocation contexts; muts[0] always exists
	// and serves the plain Alloc entry point, so a single-mutator plan
	// needs no other.
	muts []*MutatorContext

	gc bumpCtx // evacuation allocator, active during collection
	// evacMu serializes the CAS-claim trace workers' use of the shared
	// evacuation allocator. The baton engine never locks it.
	evacMu sync.Mutex

	epoch      uint16
	lineShift  uint // log2(cfg.LineSize): fill makes it divide a power-of-two block
	collecting bool
	probe      probe.Hook
	degraded   error       // sticky; set once, never cleared (§ graceful degradation)
	modbuf     []heap.Addr // logged objects (sticky write barrier)
	// tr is the plan's own plain-claim tracer: the single lane of a serial
	// stop-the-world trace and the tracer of every marking cycle's STW
	// phases and increments. Its gray stack is reused across collections.
	tr tracer

	// marking is true while a marking window is open: mutators are running
	// against a partially marked heap, the SATB deletion barrier is armed,
	// and new objects are allocated black. It is the only marking-state
	// field mutator fast paths read, so it is atomic; everything below is
	// touched only under stop-the-world, under markMu, or by the single
	// baton mutator.
	marking atomic.Bool
	// satb is the baton engine's SATB buffer: overwritten referents shaded
	// by the deletion barrier, drained at every increment. (Threaded
	// mutators shade into their context's private satb instead.)
	satb []heap.Addr
	// rescan holds logged objects force-transferred out of the modified-
	// object buffer by the ModbufCap while marking was active. Their logged
	// bits stay set (so the barrier cannot re-append them); they are
	// re-scanned and un-logged at the final mark.
	rescan []heap.Addr
	// partialObj/partialSlot are the increment resume cursor inside one
	// object: where a bounded increment that hit its deadline mid-scan
	// picks up. Nothing moves while a marking window is open, so the
	// address stays valid across increments.
	partialObj  heap.Addr
	partialSlot int
	// markers is the marker-goroutine driver of the open marking cycle, nil
	// when the cycle is driven by MarkIncrement. markMu guards rescan and
	// the stats fields threaded mutators may bump mid-window.
	markers *casTrace
	markMu  sync.Mutex

	gcstats GCStats
}

// bumpCtx is a thread-local Immix allocation context: a claimed hole.
type bumpCtx struct {
	b        *block
	cursor   heap.Addr
	limit    heap.Addr
	nextLine int // line index to continue hole search from
}

func (c *bumpCtx) fits(size int) bool {
	return c.b != nil && c.cursor+heap.Addr(size) <= c.limit
}

func (c *bumpCtx) bump(size int) heap.Addr {
	a := c.cursor
	c.cursor += heap.Addr(size)
	return a
}

func (c *bumpCtx) reset() { *c = bumpCtx{} }

// install points the context at a freshly acquired block, positioned
// before the block's first hole.
func (c *bumpCtx) install(b *block) {
	c.b = b
	c.nextLine = 0
	c.cursor, c.limit = 0, 0
}

// NewImmix builds an Immix plan from the configuration.
func NewImmix(cfg Config) *Immix {
	cfg.fill()
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic("core: Immix block size must be a power of two")
	}
	ix := &Immix{
		cfg:       cfg,
		clock:     cfg.Clock,
		model:     cfg.Model,
		mem:       cfg.Mem,
		epoch:     1,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		probe:     cfg.Probe,
	}
	ix.tr = tracer{ix: ix, clock: cfg.Clock}
	ix.blocks.init(cfg.BlockSize)
	ix.los = newLOS(cfg.Mem, cfg.Model, cfg.Clock, cfg.FailureAware)
	ix.muts = []*MutatorContext{{clock: cfg.Clock}}
	return ix
}

// Stats returns the plan's collection statistics.
func (ix *Immix) Stats() *GCStats { return &ix.gcstats }

// Epoch returns the current mark epoch (exposed for tests).
func (ix *Immix) Epoch() uint16 { return ix.epoch }

// Degraded returns the sticky error that forced degraded operation, or nil.
func (ix *Immix) Degraded() error { return ix.degraded }

// Alloc allocates an object on the primary context (muts[0]), routing
// large objects to the LOS and medium objects through overflow allocation
// as needed. The returned memory is zeroed and carries an initialized
// header.
func (ix *Immix) Alloc(ty *heap.Type, size, arrayLen int) (heap.Addr, error) {
	return ix.AllocOn(ix.muts[0], ty, size, arrayLen)
}

// AllocOn allocates an object from the given mutator context. The bump
// fast path touches only context-local state; block refills cross the
// synchronization seam.
func (ix *Immix) AllocOn(mc *MutatorContext, ty *heap.Type, size, arrayLen int) (heap.Addr, error) {
	if size > ix.cfg.LOSThreshold {
		a, err := ix.los.alloc(ty, size, arrayLen)
		if err == nil && ix.marking.Load() {
			// Allocate black: the LOS sweep at this cycle's end kills
			// objects whose epoch is stale, so pre-stamp the newborn.
			ix.model.SetEpoch(a, ix.epoch)
		}
		return a, err
	}
	c, err := ix.allocSmall(mc, size)
	if err != nil {
		return 0, err
	}
	a := c.bump(size)
	mc.clock.Charge(stats.EvAllocBytes, uint64(size))
	if !c.b.fresh {
		ix.model.S.Zero(a, size)
	}
	ix.model.InitObject(a, ty, size, arrayLen)
	if ix.marking.Load() {
		ix.allocBlack(a, size)
	}
	return a, nil
}

// allocBlack stamps a newborn object with the current epoch and marks its
// lines while a marking window is open. The cycle's sweep recomputes line
// availability purely from the mark bitmaps, so objects allocated during
// the window must look exactly like marked survivors or the sweep would
// reclaim them from under the mutator. (Standard SATB allocation color:
// newborns float one cycle even if they die inside the window.)
func (ix *Immix) allocBlack(a heap.Addr, size int) {
	ix.model.SetEpoch(a, ix.epoch)
	b := ix.blockOf(a)
	if b == nil {
		return
	}
	if ix.cfg.Threaded {
		// Line bitmap words are shared with the racing marker goroutines;
		// every block was pre-stamped at the initial mark and block
		// acquisition is gated during the window, so the epoch is current.
		b.markLinesAtomic(b.mem.Base, a, size, ix.cfg.LineSize)
	} else {
		b.markLines(b.mem.Base, a, size, ix.lineShift, ix.epoch)
	}
}

// allocSmall returns the context whose cursor fits size, refilling it as
// needed; the caller bumps it, and knows the block the object lands on.
func (ix *Immix) allocSmall(mc *MutatorContext, size int) (*bumpCtx, error) {
	if mc.cur.fits(size) {
		return &mc.cur, nil
	}
	if size > ix.cfg.LineSize {
		// Medium object that does not immediately fit the bump cursor:
		// overflow allocation (§4.1).
		return ix.allocOverflow(mc, size)
	}
	for {
		if mc.cur.b != nil && ix.advanceHole(mc.clock, &mc.cur, size) {
			return &mc.cur, nil
		}
		if err := ix.nextAllocBlock(mc); err != nil {
			return nil, err
		}
	}
}

// advanceHole moves the context to its block's next hole fitting size,
// charging line skips to the owning context's clock shard.
func (ix *Immix) advanceHole(clk *stats.Clock, c *bumpCtx, size int) bool {
	start, end, skipped, ok := c.b.findHole(c.nextLine, size, ix.cfg.LineSize)
	if skipped > 0 {
		clk.Charge(stats.EvLineSkip, uint64(skipped))
	}
	if !ok {
		return false
	}
	c.b.claim(start, end)
	base := c.b.mem.Base
	c.cursor = base + heap.Addr(start*ix.cfg.LineSize)
	c.limit = base + heap.Addr(end*ix.cfg.LineSize)
	c.nextLine = end
	return true
}

// nextAllocBlock installs the next allocation block in the context:
// the context's own recycled blocks first, then the shared recycled list,
// then completely free blocks, then fresh memory (Fig. 2's steady-state
// order). Pops are exclusive — a block handed to a context belongs to it
// until the next sweep or until the context gives it up — which is what
// keeps per-mutator ownership disjoint without per-block owner fields.
func (ix *Immix) nextAllocBlock(mc *MutatorContext) error {
	if b := ix.popRecycledFor(mc); b != nil {
		mc.cur.install(b)
		return nil
	}
	if b := ix.popFree(false); b != nil {
		mc.cur.install(b)
		return nil
	}
	b, err := ix.acquireBlock(mc.clock, false)
	if err != nil {
		return err
	}
	mc.cur.install(b)
	return nil
}

// popRecycledFor drains the context's private recycled list before
// falling back to the shared one. With a single attached context the
// private list is always empty, so the order is exactly the historical
// shared-list order.
func (ix *Immix) popRecycledFor(mc *MutatorContext) *block {
	for len(mc.recycled) > 0 {
		b := mc.recycled[0]
		mc.recycled = mc.recycled[1:]
		b.inRecycle = false
		if b.freeLines > 0 {
			return b
		}
	}
	return ix.popRecycled()
}

func (ix *Immix) popRecycled() *block {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for len(ix.recycled) > 0 {
		b := ix.recycled[0]
		ix.recycled = ix.recycled[1:]
		b.inRecycle = false
		if b.freeLines > 0 {
			return b
		}
	}
	return nil
}

// popFree takes a completely free block from the local pool. Unless forGC
// is set, the defragmentation headroom is preserved.
func (ix *Immix) popFree(forGC bool) *block {
	reserve := ix.cfg.HeadroomBlocks
	if forGC {
		reserve = 0
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for len(ix.free) > reserve {
		b := ix.free[len(ix.free)-1]
		ix.free = ix.free[:len(ix.free)-1]
		if b.freeLines > 0 {
			return b
		}
	}
	return nil
}

// acquireBlock fetches fresh memory from the kernel, charging the fetch
// to clk — the requesting context's clock shard on the mutator paths, so
// threaded-engine stall attribution sees the stall (on the baton engine
// every context charges the shared clock and the choice is immaterial).
func (ix *Immix) acquireBlock(clk *stats.Clock, perfect bool) (*block, error) {
	if ix.cfg.Threaded && ix.marking.Load() {
		// The dense block index must not grow while marker goroutines do
		// lock-free lookups, and a fresh block would miss the initial
		// mark's pre-stamp. Fail the allocation into the slow path: the
		// caller stops the world, finalizes the cycle, and retries.
		return nil, ErrMarkInProgress
	}
	ix.mu.Lock()
	mem, err := ix.mem.AcquireBlock(perfect)
	if err != nil {
		ix.mu.Unlock()
		return nil, err
	}
	b := newBlock(mem, ix.cfg.BlockSize, ix.cfg.LineSize)
	ix.blocks.insert(b)
	ix.mu.Unlock()
	clk.Charge1(stats.EvBlockFetch)
	if ix.probe != nil {
		ix.probe(probe.AllocBlock, uint64(b.mem.Base))
	}
	return b, nil
}

// allocOverflow finds room for a medium object on the overflow block. With
// failure-aware Immix the remainder of the overflow block is searched for
// a fitting hole before resorting to a fresh block, and a perfect block is
// requested when a fresh imperfect block cannot fit the object (§4.2).
func (ix *Immix) allocOverflow(mc *MutatorContext, size int) (*bumpCtx, error) {
	if mc.over.fits(size) {
		return &mc.over, nil
	}
	if mc.over.b != nil && ix.cfg.FailureAware {
		mc.clock.Charge1(stats.EvOverflowSearch)
		if ix.advanceHole(mc.clock, &mc.over, size) {
			return &mc.over, nil
		}
	}
	// A fresh overflow block, sourced from the free pool for maximal
	// contiguous space.
	for tries := 0; ; tries++ {
		b := ix.popFree(false)
		if b == nil {
			var err error
			b, err = ix.acquireBlock(mc.clock, false)
			if err != nil {
				if err == ErrHeapFull {
					err = ErrNeedFreeBlock
				}
				return nil, err
			}
		}
		mc.over.install(b)
		if ix.advanceHole(mc.clock, &mc.over, size) {
			return &mc.over, nil
		}
		// The block cannot fit the object contiguously (failed lines).
		ix.stashRecycled(mc, b)
		if !ix.cfg.FailureAware {
			if tries >= 8 {
				return nil, ErrOutOfMemory
			}
			continue
		}
		// Failure-aware fallback: request a perfect block.
		pb, err := ix.acquireBlock(mc.clock, true)
		if err != nil {
			if err == ErrHeapFull {
				err = ErrNeedFreeBlock
			}
			return nil, err
		}
		mc.over.b = pb
		mc.over.nextLine = 0
		if !ix.advanceHole(mc.clock, &mc.over, size) {
			ix.degraded = ErrPerfectBlockUnfit
			return nil, ErrPerfectBlockUnfit
		}
		return &mc.over, nil
	}
}

// stashRecycled returns a partially usable block the context could not
// place an object in. With one attached context it goes straight to the
// shared recycled list (the historical behaviour); with several, it stays
// on the context's private list so another mutator cannot pick up a block
// this one probed and rejected, keeping refill order deterministic per
// context.
func (ix *Immix) stashRecycled(mc *MutatorContext, b *block) {
	if len(ix.muts) == 1 {
		ix.pushRecycled(b)
		return
	}
	if b.inRecycle || b.freeLines == 0 {
		return
	}
	b.inRecycle = true
	mc.recycled = append(mc.recycled, b)
}

func (ix *Immix) pushRecycled(b *block) {
	if b.inRecycle || b.freeLines == 0 {
		return
	}
	ix.mu.Lock()
	b.inRecycle = true
	ix.recycled = append(ix.recycled, b)
	ix.mu.Unlock()
}

// Pin prevents the object from being moved.
func (ix *Immix) Pin(a heap.Addr) { ix.model.SetPinned(a, true) }

// Barrier is the sticky write barrier: the first mutation of an object
// since the last collection logs it for re-scanning at the next nursery
// collection [8].
func (ix *Immix) Barrier(obj heap.Addr) {
	if !ix.cfg.Generational || ix.collecting {
		return
	}
	if ix.model.Logged(obj) {
		return
	}
	ix.model.SetLogged(obj, true)
	ix.modbuf = append(ix.modbuf, obj)
	if n := len(ix.modbuf); n > ix.gcstats.ModbufHighWater {
		ix.gcstats.ModbufHighWater = n
	}
	if ix.marking.Load() && len(ix.modbuf) >= ix.cfg.ModbufCap {
		// Cap hit while marking: hand the buffer to the collector's rescan
		// list instead of growing it. Logged bits stay set, so each object
		// transfers at most once per cycle — a write storm costs
		// O(distinct objects), not O(writes). Pure memory transfer: no
		// probes, no marking work, so a barrier can never re-enter the
		// collector.
		ix.rescan = append(ix.rescan, ix.modbuf...)
		ix.modbuf = ix.modbuf[:0]
		ix.gcstats.ForcedModbufDrains++
	}
}

// BarrierOn is the threaded engine's sticky write barrier: the logged flag
// is claimed with a CAS so exactly one mutator logs each object, into its
// own context's buffer. Collections are stop-the-world on the threaded
// engine, so no collecting check is needed — no mutator runs during one.
func (ix *Immix) BarrierOn(mc *MutatorContext, obj heap.Addr) {
	if !ix.cfg.Generational {
		return
	}
	if ix.model.TrySetLoggedAtomic(obj) {
		mc.modbuf = append(mc.modbuf, obj)
		if ix.marking.Load() && len(mc.modbuf) >= ix.cfg.ModbufCap {
			// Same cap policy as the baton barrier, against the context's
			// private buffer; the transfer crosses into shared collector
			// state and takes the marking lock.
			ix.markMu.Lock()
			ix.rescan = append(ix.rescan, mc.modbuf...)
			ix.gcstats.ForcedModbufDrains++
			if ix.cfg.ModbufCap > ix.gcstats.ModbufHighWater {
				ix.gcstats.ModbufHighWater = ix.cfg.ModbufCap
			}
			ix.markMu.Unlock()
			mc.modbuf = mc.modbuf[:0]
		}
	}
}

// drainContextModbufs folds every context's barrier log into the shared
// modified-object buffer, in context order. Runs at collection start, under
// stop-the-world, before any tracing (only the threaded engine's barrier
// fills the per-context logs).
func (ix *Immix) drainContextModbufs() {
	for _, mc := range ix.muts {
		if n := len(mc.modbuf); n > ix.gcstats.ModbufHighWater {
			ix.gcstats.ModbufHighWater = n
		}
		ix.modbuf = append(ix.modbuf, mc.modbuf...)
		mc.modbuf = mc.modbuf[:0]
	}
}

// blockOf returns the Immix block containing a, or nil when a is outside
// the Immix space (e.g. a large object).
func (ix *Immix) blockOf(a heap.Addr) *block {
	return ix.blocks.find(a)
}

// Collect runs a collection. With Generational enabled and full false, a
// nursery pass runs first and escalates to a full collection when its
// yield is too low.
func (ix *Immix) Collect(full bool, roots *RootSet) {
	if ix.degraded != nil {
		return // degraded plans no longer collect
	}
	if ix.marking.Load() {
		// A synchronous collection request landed inside a marking window
		// (heap full, failure recovery, or an explicit Collect). Finish
		// the in-flight cycle first — marking state is never abandoned —
		// then let a demanded full collection run its normal evacuating
		// pass on the now-consistent heap.
		ix.CompleteMark(roots)
		if !full || ix.degraded != nil {
			return // the completed cycle is the collection
		}
	}
	var wallStart time.Time
	if ix.cfg.WallClock {
		wallStart = time.Now()
	}
	ix.drainContextModbufs()
	start := ix.clock.Now()
	ix.clock.Charge1(stats.EvGCCycle)
	ix.collecting = true
	defer func() { ix.collecting = false }()

	nursery := ix.cfg.Generational && !full
	if ix.probe != nil {
		ix.probe(probe.GCBegin, gcKind(nursery))
	}
	if !nursery {
		if !ix.bumpEpoch() {
			return // epoch space exhausted: degrade instead of panicking
		}
		ix.selectDefragCandidates()
	}
	ix.gcstats.Collections++
	if nursery {
		ix.gcstats.NurseryGCs++
	} else {
		ix.gcstats.FullCollections++
	}

	ix.gc.reset()
	// One lane is the serial trace; more lanes are deterministic simulated
	// lanes on the baton engine and real worker goroutines on the threaded
	// one, which then also fans the block sweep out.
	lanes, sweepers := max(ix.cfg.TraceWorkers, 1), 1
	if ix.cfg.Threaded && lanes > 1 {
		sweepers = lanes
		ix.ensureEvacHeadroom()
		ix.traceThreaded(roots, nursery, lanes)
	} else {
		ix.trace(roots, nursery, lanes)
	}
	var wallTrace time.Time
	if ix.cfg.WallClock {
		wallTrace = time.Now()
		ix.gcstats.WallTraceNS += wallTrace.Sub(wallStart).Nanoseconds()
	}
	traceEnd := ix.clock.Now()
	ix.gcstats.TraceCycles += traceEnd - start
	freed := ix.sweep(nursery, sweepers)
	ix.gcstats.SweepCycles += ix.clock.Now() - traceEnd
	ix.gcstats.BytesReclaimed += uint64(freed)
	ix.gcstats.LinesReclaimed += uint64(freed / ix.cfg.LineSize)
	ix.gcstats.recordPause(ix.clock.Now() - start)
	if ix.cfg.WallClock {
		end := time.Now()
		ix.gcstats.WallSweepNS += end.Sub(wallTrace).Nanoseconds()
		ix.gcstats.WallGCNS += end.Sub(wallStart).Nanoseconds()
	}

	if nursery {
		// The escalation threshold is measured against *usable* bytes so
		// failure rates do not skew the policy.
		usable := 0
		for _, b := range ix.blocks.all {
			usable += (b.lines - b.failedLines) * ix.cfg.LineSize
		}
		if usable > 0 && float64(freed) < nurseryYield*float64(usable) {
			// Low nursery yield: escalate to a full collection.
			ix.Collect(true, roots)
		}
	}
	if ix.probe != nil {
		ix.probe(probe.GCEnd, gcKind(nursery))
	}
}

// gcKind encodes the collection kind for GCBegin/GCEnd probe addresses.
func gcKind(nursery bool) uint64 {
	if nursery {
		return 1
	}
	return 0
}

// bumpEpoch advances the mark epoch, or reports false after entering
// degraded operation when the 16-bit epoch space is used up.
func (ix *Immix) bumpEpoch() bool {
	if ix.epoch == 1<<16-1 {
		ix.degraded = ErrEpochExhausted
		return false
	}
	ix.epoch++
	return true
}

// selectDefragCandidates picks evacuation candidates for a full
// collection: blocks flagged by dynamic failures are always included, and
// the most fragmented blocks (most holes) are added greedily for as long
// as the estimated live data fits the space available elsewhere —
// Immix's opportunistic defragmentation [3], which the failure-aware
// design reuses to vacate failed lines (§4.2).
func (ix *Immix) selectDefragCandidates() {
	var cands []*block
	destBytes := 0
	for _, b := range ix.blocks.all {
		if b.evacuate {
			continue
		}
		if b.holes >= 2 {
			cands = append(cands, b)
		} else {
			destBytes += b.freeLines * ix.cfg.LineSize
		}
	}
	destBytes += ix.cfg.HeadroomBlocks * ix.cfg.BlockSize
	// Most fragmented first; ties resolved by address for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].holes != cands[j].holes {
			return cands[i].holes > cands[j].holes
		}
		return cands[i].mem.Base < cands[j].mem.Base
	})
	for _, b := range cands {
		liveEstimate := (b.lines - b.failedLines - b.freeLines) * ix.cfg.LineSize
		if liveEstimate > destBytes {
			break
		}
		destBytes -= liveEstimate
		b.evacuate = true
		ix.gcstats.BlocksDefragmented++
	}
}

// sweep recycles blocks from the line marks (§4.1): full blocks drop off
// the lists, partially free blocks join the recycled list, completely free
// blocks return to the global pool (retaining the defrag headroom
// locally). With workers > 1 the per-block recomputation fans out across
// goroutines; the classification, the releases and the LOS sweep are always
// serial — they mutate shared lists and the block index. It returns the
// number of freed bytes.
func (ix *Immix) sweep(nursery bool, workers int) int {
	// Every context's claim dies with the sweep: the line marks are the
	// ground truth and all blocks get reclassified below. Sweep runs
	// stop-the-world, so the allocation seam is quiescent and no lock is
	// needed.
	for _, mc := range ix.muts {
		mc.cur.reset()
		mc.over.reset()
		mc.recycled = mc.recycled[:0]
	}
	ix.gc.reset()
	ix.recycled = ix.recycled[:0]
	ix.free = ix.free[:0]

	freed := 0
	if workers > 1 {
		freed = ix.sweepBlocksThreaded(workers)
	} else {
		for _, b := range ix.blocks.all {
			if ix.probe != nil {
				ix.probe(probe.GCSweepBlock, uint64(b.mem.Base))
			}
			freed += ix.sweepBlock(ix.clock, b)
		}
	}
	var releases []*block
	for _, b := range ix.blocks.all {
		avail := b.freeLines
		// A block holding live data on a failed line is neither released nor
		// free until that object dies: the failure falls back to OS page
		// replacement (§3.3.3), which finds the data through its block.
		stuck := b.liveOnFailed()
		switch {
		case !b.usable() && !stuck:
			// Every line failed: the block is dead weight; return it so
			// accounting can retire it.
			releases = append(releases, b)
		case avail == 0:
			// Fully occupied: off the lists until something dies.
		case avail == b.lines-b.failedLines && !stuck:
			ix.free = append(ix.free, b)
		default:
			b.inRecycle = true
			ix.recycled = append(ix.recycled, b)
		}
	}
	// Deterministic allocation order: sort recycled and free by address.
	sortBlocks(ix.recycled)
	sortBlocks(ix.free)
	// Return completely free blocks beyond the headroom to the global pool.
	for len(ix.free) > ix.cfg.HeadroomBlocks {
		b := ix.free[len(ix.free)-1]
		ix.free = ix.free[:len(ix.free)-1]
		releases = append(releases, b)
	}
	for _, b := range releases {
		ix.blocks.remove(b.mem.Base)
		ix.mem.ReleaseBlock(b.mem)
	}
	ix.los.sweep(ix.epoch, !nursery)
	return freed
}

// sweepBlock recomputes one block's availability from its line marks,
// charging clk, and returns the bytes the sweep *newly* reclaimed: lines
// available now that were not before the collection (freeLines tracks
// unclaimed availability, so the difference is what this sweep gained).
func (ix *Immix) sweepBlock(clk *stats.Clock, b *block) int {
	clk.Charge1(stats.EvBlockSweep)
	clk.Charge(stats.EvLineSweep, uint64(b.lines))
	before := b.freeLines
	avail := b.sweep(ix.epoch)
	b.inRecycle = false
	if avail > before {
		return (avail - before) * ix.cfg.LineSize
	}
	return 0
}

func sortBlocks(bs []*block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].mem.Base < bs[j-1].mem.Base; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// HandleLineFailure implements the runtime side of a dynamic failure
// (§4.2) for a line inside the Immix space: the line is retired and, when
// it may hold live data, its block is flagged for evacuation. It reports
// whether a defragmenting full collection is required; the caller triggers
// it (the affected data remains readable through the failure buffer until
// then).
func (ix *Immix) HandleLineFailure(vaddr heap.Addr) (needCollect, handled bool) {
	b := ix.blockOf(vaddr)
	if b == nil {
		return false, false // not Immix space (LOS or unmapped)
	}
	ix.gcstats.DynamicFailures++
	line := int(vaddr-b.mem.Base) / ix.cfg.LineSize
	wasLive := b.failLine(line)
	if wasLive {
		if !b.evacuate {
			b.evacuate = true
			ix.gcstats.BlocksDefragmented++
		}
		return true, true
	}
	// No live data on the line: record and continue (§3.3.3).
	return false, true
}

// LiveOnFailedLine reports whether the line containing vaddr is still
// failed and still marked live after the last collection: pinned objects
// the collector must not move, or objects an evacuation pass could not
// relocate because destination blocks ran out. Either way the collector
// cannot vacate the data, and the failure falls back to an OS page remap
// (§3.3.3).
func (ix *Immix) LiveOnFailedLine(vaddr heap.Addr) bool {
	b := ix.blockOf(vaddr)
	if b == nil {
		return false
	}
	line := int(vaddr-b.mem.Base) / ix.cfg.LineSize
	return b.failedAt(line) && b.markedAt(line, ix.epoch)
}

// UnfailPage clears the failed state of every line in the page containing
// vaddr: the OS replaced the physical frame with a perfect one, so the
// virtual page works again (§3.2.2 option 1). Lines keep their liveness.
func (ix *Immix) UnfailPage(vaddr heap.Addr) {
	b := ix.blockOf(vaddr)
	if b == nil {
		return
	}
	pageStart := int(vaddr-b.mem.Base) / failmap.PageSize * failmap.PageSize
	first := pageStart / ix.cfg.LineSize
	last := (pageStart + failmap.PageSize - 1) / ix.cfg.LineSize
	if last >= b.lines {
		last = b.lines - 1
	}
	for l := first; l <= last; l++ {
		if !b.failedAt(l) {
			continue
		}
		bitset.Clear(b.failed, l)
		b.failedLines--
		if !b.markedAt(l, ix.epoch) {
			bitset.Set(b.avail, l)
			b.freeLines++
			b.fresh = false // the line may already have been handed out
		}
	}
}

// DebugLineState describes the allocator's view of the address (for
// torture-failure diagnostics): the line's availability, mark and failed
// state inside its block, or the LOS entry's epoch.
func (ix *Immix) DebugLineState(a heap.Addr) string {
	b := ix.blockOf(a)
	if b == nil {
		if ix.los.contains(a) {
			return fmt.Sprintf("los base=%#x epoch=%d cur=%d", a, ix.model.Epoch(a), ix.epoch)
		}
		return fmt.Sprintf("%#x outside managed space", a)
	}
	line := int(a-b.mem.Base) / ix.cfg.LineSize
	return fmt.Sprintf("block=%#x line=%d avail=%t marked=%t(e%d cur%d) failed=%t evac=%t",
		b.mem.Base, line, b.availAt(line), bitset.Get(b.marked, line), b.markEpoch, ix.epoch,
		b.failedAt(line), b.evacuate)
}

// FreeBytes reports the bytes currently available inside the Immix space
// (for tests and heap-usage reporting).
func (ix *Immix) FreeBytes() int {
	n := 0
	for _, b := range ix.blocks.all {
		n += b.freeLines * ix.cfg.LineSize
	}
	return n
}

// LiveLOSObjects reports the number of live large objects.
func (ix *Immix) LiveLOSObjects() int { return ix.los.count() }

// LargeObject reports whether a is a large object's base, the one kind of
// object that lies in no block (verify.Target.Large).
func (ix *Immix) LargeObject(a uint64) bool { return ix.los.contains(heap.Addr(a)) }

// Blocks returns the number of blocks currently held by the space.
func (ix *Immix) Blocks() int { return ix.blocks.len() }

// blockIndex is an index of the space's blocks: an address-sorted slice for
// deterministic iteration plus a dense lookup table over the block arena.
// A Memory hands out block-aligned bases (the pool aligns the kernel's
// virtual cursor before block mmaps), so containment is a single
// addr>>blockShift table load on the barrier/mark hot path.
type blockIndex struct {
	all       []*block // sorted by base address
	blockSize int
	shift     uint     // log2(blockSize)
	table     []*block // dense: table[base>>shift], nil when absent
}

func (bi *blockIndex) init(blockSize int) {
	bi.blockSize = blockSize
	bi.shift = uint(bits.TrailingZeros64(uint64(blockSize)))
}

func (bi *blockIndex) len() int { return len(bi.all) }

func (bi *blockIndex) insert(b *block) {
	if b.mem.Base&heap.Addr(bi.blockSize-1) != 0 {
		panic(fmt.Sprintf("core: block base %#x is not aligned to the %d-byte block", b.mem.Base, bi.blockSize))
	}
	i := sort.Search(len(bi.all), func(j int) bool { return bi.all[j].mem.Base > b.mem.Base })
	bi.all = append(bi.all, nil)
	copy(bi.all[i+1:], bi.all[i:])
	bi.all[i] = b
	slot := int(b.mem.Base >> bi.shift)
	if slot >= len(bi.table) {
		bi.table = append(bi.table, make([]*block, slot+1-len(bi.table))...)
	}
	bi.table[slot] = b
}

func (bi *blockIndex) remove(base heap.Addr) {
	i := sort.Search(len(bi.all), func(j int) bool { return bi.all[j].mem.Base >= base })
	if i >= len(bi.all) || bi.all[i].mem.Base != base {
		panic(fmt.Sprintf("core: removing unknown block %#x", base))
	}
	bi.all = append(bi.all[:i], bi.all[i+1:]...)
	bi.table[base>>bi.shift] = nil
}

// find returns the block containing a, or nil.
func (bi *blockIndex) find(a heap.Addr) *block {
	if slot := int(a >> bi.shift); slot < len(bi.table) {
		return bi.table[slot]
	}
	return nil
}
