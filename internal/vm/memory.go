package vm

import (
	"math/bits"
	"sort"
	"sync"

	"wearmem/internal/bitset"
	"wearmem/internal/core"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/stats"
)

// poolMemory implements core.Memory over the OS model.
//
// Like MMTk's discontiguous spaces, block-grained memory (the Immix and
// mark-sweep spaces) and page-grained memory (the LOS) live in separate
// virtual arenas so that page-grained churn can never fragment the supply
// of whole blocks: freed blocks are fixed-size slots reused verbatim, and
// freed large-object extents coalesce among themselves.
//
// The heap size is enforced as a budget of bytes in use: acquiring memory
// (from a free slot, a free extent, or a fresh kernel mapping) consumes
// budget and releasing returns it, so the collectors and the LOS compete
// for one global allowance — the paper's shared pool — without sharing
// virtual address ranges.
//
// Heap compensation (§6.2) holds *usable* memory constant across failure
// rates: in compensated mode an imperfect block charges only its working
// bytes (at the 64 B PCM-line granularity — false failures at coarser
// Immix lines are deliberately not compensated, they are an effect under
// study), which is the exact per-block form of the paper's h/(1-f).
// Uncompensated mode charges raw bytes, exposing the §6.2 memory-reduction
// effect. Perfect pages borrowed from DRAM cost double while they are in
// use — the loaned page plus §5's one-page debit-credit space penalty —
// and the penalty lifts when the loan is returned.
type poolMemory struct {
	// mu serializes the pool's public surface. On the baton engine it is
	// uncontended (one runnable task); on the threaded engine concurrent
	// mutators fetch blocks and the failure path notes dynamic failures
	// from any goroutine. It nests inside core.Immix's lock and outside
	// the kernel's (core → pool → kernel → device).
	mu sync.Mutex

	kern      *kernel.Kernel
	space     *heap.Space
	clock     *stats.Clock
	blockSize int
	// aware selects the failure-aware protocol: only a failure-aware
	// runtime issues the map-failures system call after imperfect
	// mappings; an unaware runtime receives perfect memory via plain mmap
	// and never queries failure maps.
	aware bool

	budgetBytes int // remaining allowance: heap bytes - bytes in use - penalties
	compensate  bool

	// pages is the dense per-page metadata table (failed-line bitmaps,
	// borrowed flags, precomputed block-slot costs), replacing the per-page
	// maps the pool used to key by virtual page base.
	pages pageTable

	// blockSlots are free block-arena slots (virtual bases of previously
	// mapped blocks). Entries of 0 are tombstones left by interior removals
	// (perfect-block requests skipping imperfect slots); backward scans
	// skip them and the slice compacts once they dominate, so removal never
	// pays the old O(n) middle-of-slice deletion.
	blockSlots []heap.Addr
	slotHoles  int // tombstone count in blockSlots
	// losExtents are free LOS-arena page runs, sorted and coalesced.
	losExtents []extent

	// retiredBlocks counts slots permanently retired by full wear-out;
	// their page metadata is released (see retire) and their budget charge
	// stays deducted, modeling the heap shrinking as memory dies.
	retiredBlocks int
}

type extent struct {
	base  heap.Addr
	pages int
}

func (e extent) end() heap.Addr { return e.base + heap.Addr(e.pages*failmap.PageSize) }

// pageTable holds per-page metadata for the simulated virtual address space
// in dense page-indexed chunks: the failed-line bitmap and borrowed (loaned
// DRAM) state that were previously map lookups on every cost computation,
// plus the precomputed budget cost of each block slot so acquire/release
// charge in O(1) instead of popcounting every page bitmap. Chunks whose
// mapped pages have all been retired are freed, so long wear-out runs that
// burn through address space do not grow metadata unboundedly.
type pageTable struct {
	chunkShift uint // log2(pages per chunk)
	ppb        int  // pages per block
	chunks     []*pageChunk
}

type pageChunk struct {
	bits     []uint64 // per-page failed-line bitmap (0 = perfect)
	cost     []int32  // per-block-slot budget charge (sum of its page costs)
	borrowed []uint64 // bitset: page is backed by loaned DRAM
	mapped   []uint64 // bitset: page has been mapped and not retired
	live     int      // mapped pages; the chunk is freed when it drops to 0
}

// defaultChunkPages is 2 MB of address space per chunk at 4 KB pages.
const defaultChunkPages = 512

func (t *pageTable) init(pagesPerBlock int) {
	chunkPages := defaultChunkPages
	for chunkPages < pagesPerBlock {
		chunkPages *= 2
	}
	t.chunkShift = uint(bits.TrailingZeros64(uint64(chunkPages)))
	t.ppb = pagesPerBlock
}

func (t *pageTable) chunkPages() int { return 1 << t.chunkShift }

// split resolves a page address into its chunk index and in-chunk page
// index.
func (t *pageTable) split(pg heap.Addr) (ci, pi int) {
	idx := int(uint64(pg) / failmap.PageSize)
	return idx >> t.chunkShift, idx & (t.chunkPages() - 1)
}

func (t *pageTable) chunk(ci int) *pageChunk {
	if ci < len(t.chunks) {
		return t.chunks[ci]
	}
	return nil
}

func (t *pageTable) ensure(ci int) *pageChunk {
	for ci >= len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	if c == nil {
		n := t.chunkPages()
		c = &pageChunk{
			bits:     make([]uint64, n),
			cost:     make([]int32, n/t.ppb),
			borrowed: make([]uint64, bitset.Words(n)),
			mapped:   make([]uint64, bitset.Words(n)),
		}
		t.chunks[ci] = c
	}
	return c
}

// liveChunks reports the chunks still holding metadata (regression hook:
// retiring blocks must release their address ranges' metadata).
func (t *pageTable) liveChunks() int {
	n := 0
	for _, c := range t.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

func newPoolMemory(kern *kernel.Kernel, space *heap.Space, clock *stats.Clock, blockSize, budgetBytes int, aware, compensate bool) *poolMemory {
	m := &poolMemory{
		kern:        kern,
		space:       space,
		clock:       clock,
		blockSize:   blockSize,
		aware:       aware,
		budgetBytes: budgetBytes,
		compensate:  compensate,
	}
	m.pages.init(m.pagesPerBlock())
	return m
}

func (m *poolMemory) pagesPerBlock() int { return m.blockSize / failmap.PageSize }

// costOf is the budget charge for one in-use page with the given failure
// bitmap and loan state: double for loaned DRAM pages (§5's space penalty),
// working bytes under compensation, raw bytes otherwise.
func (m *poolMemory) costOf(pageBits uint64, borrowed bool) int {
	if borrowed {
		return 2 * failmap.PageSize
	}
	if !m.compensate {
		return failmap.PageSize
	}
	return failmap.PageSize - bits.OnesCount64(pageBits)*failmap.LineSize
}

// pageFailBits returns the failed-line bitmap of the page (0 for perfect,
// unmapped, or retired pages — matching the old map's zero value).
func (m *poolMemory) pageFailBits(pg heap.Addr) uint64 {
	ci, pi := m.pages.split(pg)
	if c := m.pages.chunk(ci); c != nil {
		return c.bits[pi]
	}
	return 0
}

// pageCost is the budget charge for one in-use page.
func (m *poolMemory) pageCost(pg heap.Addr) int {
	ci, pi := m.pages.split(pg)
	if c := m.pages.chunk(ci); c != nil {
		return m.costOf(c.bits[pi], bitset.Get(c.borrowed, pi))
	}
	return m.costOf(0, false)
}

// blockCost is the budget charge for a block slot, precomputed at mapping
// time and maintained incrementally by NoteFailure/NoteRemap so acquire and
// release are O(1) instead of popcounting every page.
func (m *poolMemory) blockCost(base heap.Addr) int {
	ci, pi := m.pages.split(base)
	if c := m.pages.chunk(ci); c != nil {
		return int(c.cost[pi/m.pages.ppb])
	}
	return m.pagesCost(base, m.pagesPerBlock())
}

// pagesCost is the budget charge for an n-page run.
func (m *poolMemory) pagesCost(base heap.Addr, n int) int {
	c := 0
	for p := 0; p < n; p++ {
		c += m.pageCost(base + heap.Addr(p*failmap.PageSize))
	}
	return c
}

// mapPage records a freshly mapped page's metadata and folds its cost into
// its block slot's precomputed charge.
func (m *poolMemory) mapPage(pg heap.Addr, pageBits uint64, borrowed bool) {
	ci, pi := m.pages.split(pg)
	c := m.pages.ensure(ci)
	bitset.Set(c.mapped, pi)
	if borrowed {
		bitset.Set(c.borrowed, pi)
	}
	c.bits[pi] = pageBits
	c.live++
	c.cost[pi/m.pages.ppb] += int32(m.costOf(pageBits, borrowed))
}

// mmap maps fresh memory from the kernel and records page metadata. The
// caller has already checked the budget.
func (m *poolMemory) mmap(pages int, perfect bool, align uint64) (heap.Addr, error) {
	m.kern.AlignVirtual(align)
	var region *kernel.Region
	if perfect {
		region, _ = m.kern.MmapPerfect(pages)
	} else {
		var err error
		region, err = m.kern.MmapRelaxed(pages)
		if err != nil {
			// Physical memory exhausted: surface as heap-full so a
			// collection can recycle slots and extents.
			return 0, core.ErrHeapFull
		}
	}
	base := heap.Addr(region.Base)
	m.space.Ensure(base + heap.Addr(region.Size()))
	if perfect || !m.aware {
		// Perfect mappings need no failure map; an unaware runtime never
		// issues map-failures (it only ever runs on pristine memory).
		for p := 0; p < pages; p++ {
			vp := base + heap.Addr(p*failmap.PageSize)
			m.mapPage(vp, 0, m.kern.FrameIsDRAM(region.Frame(p)))
		}
	} else {
		fm := m.kern.MapFailures(region)
		for p := 0; p < pages; p++ {
			m.mapPage(base+heap.Addr(p*failmap.PageSize), fm.PageBitmap(p), false)
		}
	}
	return base, nil
}

// blockPerfect reports whether every page of the block slot is clean.
func (m *poolMemory) blockPerfect(base heap.Addr) bool {
	for p := 0; p < m.pagesPerBlock(); p++ {
		if m.pageFailBits(base+heap.Addr(p*failmap.PageSize)) != 0 {
			return false
		}
	}
	return true
}

// blockFailMap assembles the failure map of a block slot, or nil when the
// block is perfect.
func (m *poolMemory) blockFailMap(base heap.Addr) *failmap.Map {
	if m.blockPerfect(base) {
		return nil
	}
	fm := failmap.New(m.blockSize)
	for p := 0; p < m.pagesPerBlock(); p++ {
		fm.SetPageBitmap(p, m.pageFailBits(base+heap.Addr(p*failmap.PageSize)))
	}
	return fm
}

func (m *poolMemory) AcquireBlock(perfect bool) (core.BlockMem, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The budget check uses the worst case (a perfect block); the actual
	// charge is the slot's usable cost.
	if m.budgetBytes < m.blockSize {
		return core.BlockMem{}, core.ErrHeapFull
	}
	// Reuse a free slot of matching quality before mapping fresh memory.
	for i := len(m.blockSlots) - 1; i >= 0; i-- {
		base := m.blockSlots[i]
		if base == 0 {
			continue // tombstone
		}
		if perfect && !m.blockPerfect(base) {
			continue
		}
		m.takeSlot(i)
		m.budgetBytes -= m.blockCost(base)
		return core.BlockMem{Base: base, Fail: m.blockFailMap(base)}, nil
	}
	base, err := m.mmap(m.pagesPerBlock(), perfect, uint64(m.blockSize))
	if err != nil {
		return core.BlockMem{}, err
	}
	m.budgetBytes -= m.blockCost(base)
	return core.BlockMem{Base: base, Fail: m.blockFailMap(base)}, nil
}

// takeSlot removes blockSlots[i]: the last entry pops in O(1), interior
// entries become tombstones, and the slice compacts — preserving the
// relative order of live slots, so the selection sequence is exactly the
// old shifting delete's — once tombstones outnumber live entries.
func (m *poolMemory) takeSlot(i int) {
	if i == len(m.blockSlots)-1 {
		n := i
		for n > 0 && m.blockSlots[n-1] == 0 {
			n--
			m.slotHoles--
		}
		m.blockSlots = m.blockSlots[:n]
		return
	}
	m.blockSlots[i] = 0
	m.slotHoles++
	if m.slotHoles*2 > len(m.blockSlots) {
		live := m.blockSlots[:0]
		for _, b := range m.blockSlots {
			if b != 0 {
				live = append(live, b)
			}
		}
		m.blockSlots = live
		m.slotHoles = 0
	}
}

func (m *poolMemory) ReleaseBlock(b core.BlockMem) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Fail != nil && b.Fail.FailedLines() == b.Fail.Lines() {
		// Every line is dead: retire the slot rather than recycle useless
		// memory. The budget charge stays deducted — under compensation a
		// fully failed block charged (near) zero to begin with, and in
		// uncompensated runs the lost allowance is the §6.2 heap shrinkage
		// under study — but the slot's page metadata is released: retired
		// virtual addresses are never reused, and long wear-out runs would
		// otherwise grow the metadata tables unboundedly.
		m.retire(b.Base)
		return
	}
	m.budgetBytes += m.blockCost(b.Base)
	m.blockSlots = append(m.blockSlots, b.Base)
}

// retire drops the page metadata of a permanently dead block slot, freeing
// any chunk whose mapped pages are all gone.
func (m *poolMemory) retire(base heap.Addr) {
	m.retiredBlocks++
	for p := 0; p < m.pagesPerBlock(); p++ {
		ci, pi := m.pages.split(base + heap.Addr(p*failmap.PageSize))
		c := m.pages.chunk(ci)
		if c == nil || !bitset.Get(c.mapped, pi) {
			continue
		}
		bitset.Clear(c.mapped, pi)
		bitset.Clear(c.borrowed, pi)
		c.bits[pi] = 0
		c.cost[pi/m.pages.ppb] = 0
		c.live--
		if c.live == 0 {
			m.pages.chunks[ci] = nil
		}
	}
}

func (m *poolMemory) AcquirePages(n int, perfect bool) (heap.Addr, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.budgetBytes < n*failmap.PageSize {
		return 0, core.ErrHeapFull
	}
	if i, start, ok := m.findLOSRun(n, perfect); ok {
		m.carve(i, start, n)
		m.budgetBytes -= m.pagesCost(start, n)
		return start, nil
	}
	base, err := m.mmap(n, perfect, failmap.PageSize)
	if err != nil {
		return 0, err
	}
	m.budgetBytes -= m.pagesCost(base, n)
	return base, nil
}

func (m *poolMemory) ReleasePages(base heap.Addr, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budgetBytes += m.pagesCost(base, n)
	m.release(base, n)
}

// findLOSRun searches the LOS arena for a free run of n pages; perfect
// demands failure-free pages.
func (m *poolMemory) findLOSRun(pages int, perfect bool) (int, heap.Addr, bool) {
	for i, e := range m.losExtents {
		if e.pages < pages {
			continue
		}
		start := e.base
		for start+heap.Addr(pages*failmap.PageSize) <= e.end() {
			ok := true
			var bad heap.Addr
			if perfect {
				for p := 0; p < pages; p++ {
					pg := start + heap.Addr(p*failmap.PageSize)
					if m.pageFailBits(pg) != 0 {
						ok = false
						bad = pg
						break
					}
				}
			}
			if ok {
				return i, start, true
			}
			start = bad + failmap.PageSize
		}
	}
	return 0, 0, false
}

// carve removes [start, start+pages) from LOS extent i.
func (m *poolMemory) carve(i int, start heap.Addr, pages int) {
	e := m.losExtents[i]
	end := start + heap.Addr(pages*failmap.PageSize)
	var repl []extent
	if start > e.base {
		repl = append(repl, extent{base: e.base, pages: int((start - e.base) / failmap.PageSize)})
	}
	if end < e.end() {
		repl = append(repl, extent{base: end, pages: int((e.end() - end) / failmap.PageSize)})
	}
	m.losExtents = append(m.losExtents[:i], append(repl, m.losExtents[i+1:]...)...)
}

// release inserts a run into the LOS arena, coalescing with neighbours.
func (m *poolMemory) release(base heap.Addr, pages int) {
	e := extent{base: base, pages: pages}
	i := sort.Search(len(m.losExtents), func(j int) bool { return m.losExtents[j].base > base })
	m.losExtents = append(m.losExtents, extent{})
	copy(m.losExtents[i+1:], m.losExtents[i:])
	m.losExtents[i] = e
	if i+1 < len(m.losExtents) && m.losExtents[i].end() == m.losExtents[i+1].base {
		m.losExtents[i].pages += m.losExtents[i+1].pages
		m.losExtents = append(m.losExtents[:i+1], m.losExtents[i+2:]...)
	}
	if i > 0 && m.losExtents[i-1].end() == m.losExtents[i].base {
		m.losExtents[i-1].pages += m.losExtents[i].pages
		m.losExtents = append(m.losExtents[:i], m.losExtents[i+1:]...)
	}
}

// NoteFailure records a dynamic line failure in the page metadata so that
// future reuse of the page (as a block slot or LOS extent) sees it, keeping
// the slot's precomputed cost in step.
func (m *poolMemory) NoteFailure(vaddr heap.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ci, pi := m.pages.split(vaddr &^ (failmap.PageSize - 1))
	c := m.pages.chunk(ci)
	if c == nil || !bitset.Get(c.mapped, pi) {
		return
	}
	line := uint(vaddr%failmap.PageSize) / failmap.LineSize
	if c.bits[pi]&(1<<line) != 0 {
		return
	}
	c.bits[pi] |= 1 << line
	if m.compensate && !bitset.Get(c.borrowed, pi) {
		c.cost[pi/m.pages.ppb] -= failmap.LineSize
	}
}

// NoteRemap records that the OS replaced the page behind vaddr with a
// perfect frame: its bitmap clears and its cost returns to a clean page's.
func (m *poolMemory) NoteRemap(vaddr heap.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ci, pi := m.pages.split(vaddr &^ (failmap.PageSize - 1))
	c := m.pages.chunk(ci)
	if c == nil || !bitset.Get(c.mapped, pi) {
		return
	}
	if c.bits[pi] != 0 {
		if m.compensate && !bitset.Get(c.borrowed, pi) {
			c.cost[pi/m.pages.ppb] += int32(bits.OnesCount64(c.bits[pi]) * failmap.LineSize)
		}
		c.bits[pi] = 0
	}
}

// FreeBudgetPages reports the remaining allowance in whole pages.
func (m *poolMemory) FreeBudgetPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budgetBytes / failmap.PageSize
}

// PoolPages reports the pages parked in free slots and extents (virtual
// space held for reuse; not counted against the allowance).
func (m *poolMemory) PoolPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := (len(m.blockSlots) - m.slotHoles) * m.pagesPerBlock()
	for _, e := range m.losExtents {
		n += e.pages
	}
	return n
}

// PoolExtents reports the number of free LOS extents (fragmentation
// diagnostic).
func (m *poolMemory) PoolExtents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.losExtents)
}
