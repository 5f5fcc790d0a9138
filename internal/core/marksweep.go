package core

import (
	"math/bits"
	"sort"

	"wearmem/internal/bitset"
	"wearmem/internal/heap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// sizeClasses are the segregated-fit cell sizes of the mark-sweep plan.
// Objects above the last class go to the large object space.
var sizeClasses = []int{
	16, 32, 48, 64, 96, 128, 192, 256, 384, 512,
	768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
}

// msBlock is a mark-sweep block carved into equal cells of one size class.
// Cell occupancy is tracked in uint64 bitsets so the free-cell search and
// the sweep scan a word at a time (the same optimization as the Immix line
// bitmaps).
type msBlock struct {
	mem       BlockMem
	class     int
	cellSize  int
	words     int
	allocated []uint64
	usable    []uint64 // cleared for cells overlapping failed lines
	usableN   int
	freeN     int
	scan      int // word index of the lowest possibly-free word
}

func newMSBlock(mem BlockMem, blockSize, class int) *msBlock {
	cs := sizeClasses[class]
	n := blockSize / cs
	b := &msBlock{
		mem:       mem,
		class:     class,
		cellSize:  cs,
		words:     bitset.Words(n),
		allocated: make([]uint64, bitset.Words(n)),
	}
	// §3.3.1: cells overlapping failed lines are marked unavailable. The
	// failed set is inverted in place.
	var failed int
	b.usable, failed = failedUnits(mem.Fail, cs, n)
	for w, x := range b.usable {
		b.usable[w] = ^x & bitset.Mask(w, 0, n)
	}
	b.usableN, b.freeN = n-failed, n-failed
	return b
}

func (b *msBlock) cellAddr(i int) heap.Addr {
	return b.mem.Base + heap.Addr(i*b.cellSize)
}

// takeCell claims the lowest free usable cell. Cells only free during a
// sweep (which resets scan), so the lowest free cell never moves backward
// between sweeps and the word cursor is exact, keeping allocation order
// identical to the old free-list stack: ascending cell index.
func (b *msBlock) takeCell() (int, bool) {
	for w := b.scan; w < b.words; w++ {
		if x := b.usable[w] &^ b.allocated[w]; x != 0 {
			i := w<<6 + bits.TrailingZeros64(x)
			bitset.Set(b.allocated, i)
			b.freeN--
			b.scan = w
			return i, true
		}
	}
	b.scan = b.words
	return 0, false
}

// MarkSweep is the full-heap free-list collector used as the paper's
// baseline comparison (Fig. 3), with optional sticky-mark-bit generational
// collection (S-MS) and the simple failure-aware extension available to
// free lists: cells coinciding with failed memory are never handed out
// (§3.3.1).
type MarkSweep struct {
	cfg   Config
	clock *stats.Clock
	model *heap.Model
	mem   Memory
	los   *los

	blockTable map[heap.Addr]*msBlock // keyed by exact block base
	partial    [][]*msBlock           // per class: blocks with free cells
	// deadpool parks acquired blocks so broken that they yielded no cell
	// for the requested class; they return to the global pool at the next
	// sweep rather than immediately (which would cycle forever between the
	// pool and the allocator).
	deadpool []BlockMem

	epoch      uint16
	collecting bool
	probe      probe.Hook
	degraded   error // sticky; set once, never cleared
	modbuf     []heap.Addr
	gray       []heap.Addr // mark stack, reused across collections
	scanbuf    []heap.Addr // per-object ref-slot buffer, reused across scans

	gcstats GCStats
}

// NewMarkSweep builds a mark-sweep plan from the configuration.
func NewMarkSweep(cfg Config) *MarkSweep {
	cfg.fill()
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic("core: mark-sweep block size must be a power of two")
	}
	ms := &MarkSweep{
		cfg:        cfg,
		clock:      cfg.Clock,
		model:      cfg.Model,
		mem:        cfg.Mem,
		blockTable: make(map[heap.Addr]*msBlock),
		partial:    make([][]*msBlock, len(sizeClasses)),
		epoch:      1,
		probe:      cfg.Probe,
	}
	ms.los = newLOS(cfg.Mem, cfg.Model, cfg.Clock, cfg.FailureAware)
	return ms
}

// Stats returns the plan's collection statistics.
func (ms *MarkSweep) Stats() *GCStats { return &ms.gcstats }

// Epoch returns the current mark epoch (exposed for tests and verifiers).
func (ms *MarkSweep) Epoch() uint16 { return ms.epoch }

// Degraded returns the sticky error that forced degraded operation, or nil.
func (ms *MarkSweep) Degraded() error { return ms.degraded }

func classFor(size int) int {
	for i, cs := range sizeClasses {
		if size <= cs {
			return i
		}
	}
	return -1
}

// Alloc allocates from the segregated free lists, routing oversized
// objects to the LOS.
func (ms *MarkSweep) Alloc(ty *heap.Type, size, arrayLen int) (heap.Addr, error) {
	if size > ms.cfg.LOSThreshold {
		return ms.los.alloc(ty, size, arrayLen)
	}
	class := classFor(size)
	if class < 0 {
		return ms.los.alloc(ty, size, arrayLen)
	}
	a, err := ms.allocCell(class)
	if err != nil {
		return 0, err
	}
	ms.clock.Charge1(stats.EvFreeListAlloc)
	ms.clock.Charge(stats.EvAllocBytes, uint64(size))
	ms.model.S.Zero(a, sizeClasses[class])
	ms.model.InitObject(a, ty, size, arrayLen)
	return a, nil
}

func (ms *MarkSweep) allocCell(class int) (heap.Addr, error) {
	for {
		list := ms.partial[class]
		for len(list) > 0 {
			b := list[len(list)-1]
			if i, ok := b.takeCell(); ok {
				if b.freeN == 0 {
					ms.partial[class] = list[:len(list)-1]
				}
				return b.cellAddr(i), nil
			}
			list = list[:len(list)-1]
			ms.partial[class] = list
		}
		mem, err := ms.mem.AcquireBlock(false)
		if err != nil {
			return 0, err
		}
		ms.clock.Charge1(stats.EvBlockFetch)
		if ms.probe != nil {
			ms.probe(probe.AllocBlock, uint64(mem.Base))
		}
		b := newMSBlock(mem, ms.cfg.BlockSize, class)
		if b.freeN == 0 {
			// A block so broken no cell of this class fits: park it until
			// the next sweep and try fresh memory.
			ms.deadpool = append(ms.deadpool, mem)
			continue
		}
		ms.blockTable[mem.Base] = b
		ms.partial[class] = append(ms.partial[class], b)
	}
}

// Barrier is the sticky write barrier (S-MS).
func (ms *MarkSweep) Barrier(obj heap.Addr) {
	if !ms.cfg.Generational || ms.collecting {
		return
	}
	if ms.model.Logged(obj) {
		return
	}
	ms.model.SetLogged(obj, true)
	ms.modbuf = append(ms.modbuf, obj)
}

// Pin is a no-op: mark-sweep never moves objects.
func (ms *MarkSweep) Pin(a heap.Addr) { ms.model.SetPinned(a, true) }

// Collect runs a collection; nursery passes escalate on low yield.
func (ms *MarkSweep) Collect(full bool, roots *RootSet) {
	if ms.degraded != nil {
		return // degraded plans no longer collect
	}
	start := ms.clock.Now()
	ms.clock.Charge1(stats.EvGCCycle)
	ms.collecting = true
	defer func() { ms.collecting = false }()

	nursery := ms.cfg.Generational && !full
	if ms.probe != nil {
		ms.probe(probe.GCBegin, gcKind(nursery))
	}
	if !nursery {
		if ms.epoch == 1<<16-1 {
			ms.degraded = ErrEpochExhausted
			return // epoch space exhausted: degrade instead of panicking
		}
		ms.epoch++
	}
	ms.gcstats.Collections++
	if !nursery {
		ms.gcstats.FullCollections++
	}

	ms.trace(roots, nursery)
	traceEnd := ms.clock.Now()
	ms.gcstats.TraceCycles += traceEnd - start
	freed := ms.sweep(nursery)
	ms.gcstats.SweepCycles += ms.clock.Now() - traceEnd
	ms.gcstats.BytesReclaimed += uint64(freed)
	ms.gcstats.recordPause(ms.clock.Now() - start)

	if nursery {
		total := len(ms.blockTable) * ms.cfg.BlockSize
		if total > 0 && float64(freed) < nurseryYield*float64(total) {
			ms.Collect(true, roots)
		}
	}
	if ms.probe != nil {
		ms.probe(probe.GCEnd, gcKind(nursery))
	}
}

func (ms *MarkSweep) trace(roots *RootSet, nursery bool) {
	ms.gray = ms.gray[:0]
	roots.Each(func(slot *heap.Addr) {
		ms.clock.Charge1(stats.EvRootScan)
		if *slot != 0 {
			ms.markObject(*slot)
		}
	})
	if nursery {
		for _, obj := range ms.modbuf {
			ms.scanObject(obj)
		}
	}
	for len(ms.gray) > 0 {
		obj := ms.gray[len(ms.gray)-1]
		ms.gray = ms.gray[:len(ms.gray)-1]
		ms.scanObject(obj)
	}
	for _, obj := range ms.modbuf {
		ms.model.SetLogged(obj, false)
	}
	ms.modbuf = ms.modbuf[:0]
}

// scanObject visits the object's reference slots through the closure-free
// RefSlots walker (differential-tested against heap.Model.EachRef); the
// slot buffer is reused across objects and collections.
func (ms *MarkSweep) scanObject(obj heap.Addr) {
	slots := ms.model.RefSlots(obj, ms.scanbuf[:0])
	for _, slot := range slots {
		ms.clock.Charge1(stats.EvObjectScan)
		child := heap.Addr(ms.model.S.Load64(slot))
		if child != 0 {
			ms.markObject(child)
		}
	}
	ms.scanbuf = slots[:0]
}

func (ms *MarkSweep) markObject(a heap.Addr) {
	if ms.model.Epoch(a) == ms.epoch {
		return
	}
	if ms.probe != nil {
		ms.probe(probe.GCTraceMark, uint64(a))
	}
	ty, size := ms.model.Stamp(a, ms.epoch)
	ms.clock.Charge1(stats.EvObjectMark)
	ms.gcstats.ObjectsMarked++
	ms.gcstats.BytesMarkedLive += uint64(size)
	if ms.model.RefCountOf(ty, a) > 0 {
		ms.gray = append(ms.gray, a)
	}
}

func (ms *MarkSweep) sweep(nursery bool) int {
	freed := 0
	for c := range ms.partial {
		ms.partial[c] = ms.partial[c][:0]
	}
	keys := make([]heap.Addr, 0, len(ms.blockTable))
	for k := range ms.blockTable {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	for _, key := range keys {
		b := ms.blockTable[key]
		if ms.probe != nil {
			ms.probe(probe.GCSweepBlock, uint64(key))
		}
		ms.clock.Charge1(stats.EvBlockSweep)
		// One sweep charge per usable cell, free or allocated, matching the
		// old per-cell walk; the scan itself only visits allocated cells.
		ms.clock.Charge(stats.EvFreeListSwep, uint64(b.usableN))
		live := 0
		for w := 0; w < b.words; w++ {
			for x := b.usable[w] & b.allocated[w]; x != 0; x &= x - 1 {
				i := w<<6 + bits.TrailingZeros64(x)
				e := ms.model.Epoch(b.cellAddr(i))
				dead := e != ms.epoch
				if nursery {
					dead = e == 0 // sticky: only unmarked young objects die
				}
				if dead {
					bitset.Clear(b.allocated, i)
					freed += b.cellSize
				} else {
					live++
				}
			}
		}
		b.freeN = b.usableN - live
		b.scan = 0
		if live == 0 {
			delete(ms.blockTable, key)
			ms.mem.ReleaseBlock(b.mem)
			continue
		}
		if b.freeN > 0 {
			ms.partial[b.class] = append(ms.partial[b.class], b)
		}
	}
	for _, mem := range ms.deadpool {
		ms.mem.ReleaseBlock(mem)
	}
	ms.deadpool = ms.deadpool[:0]
	ms.los.sweep(ms.epoch, !nursery)
	return freed
}
