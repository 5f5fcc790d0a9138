// Package kernel models the operating-system support of §3.2.
//
// The kernel owns the physical page frames of the machine: a large PCM pool
// whose pages may carry failed lines, and a scarce DRAM pool used only when
// perfect memory is demanded and none remains. It maintains the per-page
// failed-line bitmap table (one 64-bit word per PCM page, §3.2.1), exposes
// the mmap-imperfect and map-failures system calls to failure-aware
// runtimes, delivers failure interrupts from the PCM device by reverse
// translation and up-calls into the registered runtime handler (§3.2.2),
// and implements the paper's debit–credit accounting for perfect-page
// borrowing (§5): a fussy allocator that must have a perfect page when none
// is available borrows one (a one-page space penalty), and the relaxed
// allocator repays the debt by declining perfect pages while debt is
// outstanding.
package kernel

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// Region is a virtually contiguous mapping returned by the mmap calls.
type Region struct {
	// Base is the virtual byte address of the region.
	Base uint64
	// Pages is the region length in pages.
	Pages int
	// k owns the page table, the only record of the frame behind each page.
	k *Kernel
}

// Size returns the region length in bytes.
func (r *Region) Size() int { return r.Pages * failmap.PageSize }

// Frame returns the physical frame behind virtual page i of the region,
// read from the kernel's page table. The region must still be mapped.
func (r *Region) Frame(i int) int {
	if i < 0 || i >= r.Pages {
		panic(fmt.Sprintf("kernel: page %d outside the %d-page region at %#x", i, r.Pages, r.Base))
	}
	f, _, ok := r.k.Translate(r.Base + uint64(i)*failmap.PageSize)
	if !ok {
		panic(fmt.Sprintf("kernel: Frame of released region at %#x", r.Base))
	}
	return f
}

// LineFailure describes one dynamic failure delivered to the runtime
// handler: the virtual address of the failed line and the data the program
// intended to write, preserved by the failure buffer.
type LineFailure struct {
	VAddr uint64
	Data  []byte
	// Fake marks clustering-metadata reservations rather than data loss.
	Fake bool
}

// FailureHandler is the runtime up-call registered via
// RegisterFailureHandler (§3.2.2). The handler must relocate affected data
// before returning; the kernel revokes access and updates its failure table
// before the call.
type FailureHandler interface {
	HandleFailures(fails []LineFailure)
}

// Config parametrizes a Kernel.
type Config struct {
	// PCMPages is the size of the PCM pool.
	PCMPages int
	// Inject is the static fault-injection map covering the PCM pool
	// (§5: faults injected between the OS allocator and the VM allocator).
	// Nil means a pristine pool. Apply failmap.ClusterHardware beforehand
	// to model clustering hardware for statically injected failures.
	Inject *failmap.Map
	// Device optionally backs the pool with a live PCM device for dynamic
	// failures; its size must cover PCMPages.
	Device *pcm.Device
	// Clock charges system-call and interrupt costs; may be nil.
	Clock *stats.Clock
	// RemapUnaware makes the kernel hide device failures on mapped frames
	// from processes without a registered runtime handler by remapping the
	// page to a perfect frame (§3.2's "hide line failures from executing
	// processes"). Off by default: failures on handler-less mapped frames
	// then only update the failure table, as before.
	RemapUnaware bool
	// Placement names the frame-placement policy ("paper", "rotate",
	// "decoder", "migrate"); empty means the stock "paper" policy. New
	// panics on unknown names — validate with NewPlacementPolicy first.
	Placement string
	// Remap names the wear/failure remap policy; empty means "paper".
	Remap string
	// Probe observes up-calls and write stalls for fault-injection
	// campaigns; nil costs one branch per event and charges nothing.
	Probe probe.Hook
}

// Kernel is the simulated operating system.
//
// The failure table, the frame pools and the reverse map sit behind mu, so
// a failure interrupt is safe to land regardless of which mutator's write
// triggered it. The forward page table is written under mu too, but read
// without it: Translate, and so WriteLine's no-failure path, takes no
// kernel lock. The up-call into the runtime handler is always delivered
// with mu released: the handler collects, the collection acquires blocks,
// and block acquisition re-enters the kernel through MmapRelaxed. Locks
// are taken strictly downward through the stack, core.Immix.mu → Kernel.mu
// → pcm.Device.mu; a store reaches Device.mu from the runtime without
// passing through Kernel.mu. The clock is charged by whichever goroutine
// holds the baton (the clock itself stays single-owner; pass a nil clock
// for free-threaded use).
type Kernel struct {
	mu           sync.Mutex
	clock        *stats.Clock
	device       *pcm.Device
	probe        probe.Hook
	remapUnaware bool

	pcmPages int
	bitmaps  []uint64 // the OS failure table: failed-line bitmap per PCM frame
	taken    []bool

	cursor       int   // relaxed allocation cursor over PCM frames
	perfectQueue []int // perfect PCM frames in address order
	perfectHead  int

	// perfectFree mirrors |{i ∈ [perfectHead, len(perfectQueue)) :
	// !taken[perfectQueue[i]]}| — the quantity PerfectPCMPagesLeft used to
	// rescan for — maintained incrementally at take/release/head-advance.
	// qpos maps each PCM frame to its perfectQueue index (-1 when absent)
	// so take/release know whether the frame is in the counted window.
	perfectFree int
	qpos        []int32

	placement    PlacementPolicy
	remap        RemapPolicy
	policyRemaps int // completed wear-triggered policy remaps

	dramNext int // next DRAM frame id (they are minted on demand)

	vnext uint64 // virtual address bump pointer

	// table is the forward page table, published whole so that Translate
	// walks it without mu. Entries change only in setFrameLocked; makeRegion
	// grows the table by copy. A reader still holding the previous table
	// sees translations that were current when its call began — the window
	// any caller already has between Translate returning and using the frame.
	table atomic.Pointer[pageTable]

	// reverse maps physical frame -> (region, page index) for interrupt
	// handling; the paper's reverse address translation.
	reverse map[int]reversed

	handler FailureHandler

	debt     int
	borrows  int
	repaid   int
	mapped   int
	released []int
	regions  []*Region
}

type reversed struct {
	region *Region
	page   int
}

// pageTable is the forward page table: one entry per virtual page, indexed
// by page number, holding the backing frame plus one so that the zero value
// is an unmapped page.
type pageTable struct{ pte []atomic.Uint64 }

// New builds a kernel over the configured physical memory.
func New(cfg Config) *Kernel {
	if cfg.PCMPages <= 0 {
		panic("kernel: PCMPages must be positive")
	}
	if cfg.Inject != nil && cfg.Inject.Pages() < cfg.PCMPages {
		panic(fmt.Sprintf("kernel: inject map covers %d pages, need %d", cfg.Inject.Pages(), cfg.PCMPages))
	}
	if cfg.Device != nil && cfg.Device.Size() < cfg.PCMPages*failmap.PageSize {
		panic("kernel: device smaller than PCM pool")
	}
	placement, err := NewPlacementPolicy(cfg.Placement)
	if err != nil {
		panic(err)
	}
	remap, err := NewRemapPolicy(cfg.Remap)
	if err != nil {
		panic(err)
	}
	k := &Kernel{
		placement:    placement,
		remap:        remap,
		clock:        cfg.Clock,
		device:       cfg.Device,
		probe:        cfg.Probe,
		remapUnaware: cfg.RemapUnaware,
		pcmPages:     cfg.PCMPages,
		bitmaps:      make([]uint64, cfg.PCMPages),
		taken:        make([]bool, cfg.PCMPages),
		dramNext:     cfg.PCMPages,
		reverse:      make(map[int]reversed),
		vnext:        failmap.PageSize, // keep virtual page 0 unmapped
	}
	k.table.Store(new(pageTable))
	for p := 0; p < cfg.PCMPages; p++ {
		if cfg.Inject != nil {
			k.bitmaps[p] = cfg.Inject.PageBitmap(p)
		}
		if k.bitmaps[p] == 0 {
			k.perfectQueue = append(k.perfectQueue, p)
		}
	}
	k.rebuildPerfectIndexLocked()
	if cfg.Device != nil {
		cfg.Device.OnFailure(func() { k.serviceDevice() })
		cfg.Device.OnBufferFull(func() { k.serviceDevice() })
	}
	return k
}

// RegisterFailureHandler installs the runtime's dynamic-failure up-call.
// A failure-aware runtime must register before using imperfect memory.
func (k *Kernel) RegisterFailureHandler(h FailureHandler) {
	k.mu.Lock()
	k.handler = h
	k.mu.Unlock()
}

// Debt returns the outstanding perfect-page debt (pages borrowed from DRAM
// and not yet repaid by the relaxed allocator).
func (k *Kernel) Debt() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.debt
}

// Borrows returns the cumulative number of perfect pages that had to be
// borrowed — the "demand for perfect pages" metric of Fig. 9(b).
func (k *Kernel) Borrows() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.borrows
}

// Repaid returns the number of borrowed pages repaid by the relaxed
// allocator declining perfect frames.
func (k *Kernel) Repaid() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.repaid
}

// MappedPages returns how many pages have been handed out in total
// (including borrowed DRAM pages).
func (k *Kernel) MappedPages() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.mapped
}

// PCMPages returns the size of the PCM pool in pages (immutable after
// construction; used to bound virtual address reservations).
func (k *Kernel) PCMPages() int { return k.pcmPages }

// FreePCMPages returns the number of PCM frames still available to relaxed
// requests.
func (k *Kernel) FreePCMPages() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.released)
	for p := k.cursor; p < k.pcmPages; p++ {
		if !k.taken[p] {
			n++
		}
	}
	return n
}

// PerfectPCMPagesLeft returns how many perfect PCM frames remain available.
// O(1): the count is maintained at frame take/release and queue-head
// advance instead of rescanning perfectQueue on every call.
func (k *Kernel) PerfectPCMPagesLeft() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.perfectFree
}

// rebuildPerfectIndexLocked recomputes qpos and perfectFree after the
// perfect queue is (re)built — at construction, failure-table restore and
// recovery admission.
func (k *Kernel) rebuildPerfectIndexLocked() {
	if k.qpos == nil {
		k.qpos = make([]int32, k.pcmPages)
	}
	for i := range k.qpos {
		k.qpos[i] = -1
	}
	for i, f := range k.perfectQueue {
		k.qpos[f] = int32(i)
	}
	k.perfectFree = 0
	for i := k.perfectHead; i < len(k.perfectQueue); i++ {
		if !k.taken[k.perfectQueue[i]] {
			k.perfectFree++
		}
	}
}

// takeFrameLocked marks a PCM frame taken, maintaining perfectFree: a
// frame leaving the free pool stops counting if its queue entry is still
// ahead of perfectHead.
func (k *Kernel) takeFrameLocked(f int) {
	if k.taken[f] {
		return
	}
	k.taken[f] = true
	if int(k.qpos[f]) >= k.perfectHead {
		k.perfectFree--
	}
}

// freeFrameLocked marks a PCM frame free again, maintaining perfectFree.
func (k *Kernel) freeFrameLocked(f int) {
	if !k.taken[f] {
		return
	}
	k.taken[f] = false
	if int(k.qpos[f]) >= k.perfectHead {
		k.perfectFree++
	}
}

func (k *Kernel) charge(e stats.Event) {
	if k.clock != nil {
		k.clock.Charge1(e)
	}
}

// ErrOutOfMemory is returned when the PCM pool cannot satisfy a request.
var ErrOutOfMemory = errors.New("kernel: out of physical memory")

// FrameIsDRAM reports whether the frame is loaned DRAM rather than PCM.
func (k *Kernel) FrameIsDRAM(f int) bool { return f >= k.pcmPages }

// AlignVirtual advances the virtual allocation cursor to the next multiple
// of align bytes so the following mapping starts aligned (runtimes map
// Immix blocks at block-aligned virtual addresses). Skipped virtual space
// is never backed by frames and costs nothing.
func (k *Kernel) AlignVirtual(align uint64) {
	if align == 0 || align&(align-1) != 0 {
		panic("kernel: alignment must be a power of two")
	}
	k.mu.Lock()
	k.vnext = (k.vnext + align - 1) &^ (align - 1)
	k.mu.Unlock()
}

// MmapRelaxed is the mmap-imperfect system call (§3.2.1): it returns npages
// of PCM regardless of quality. Not all of the returned memory is usable;
// the caller must follow up with MapFailures. While perfect-page debt is
// outstanding, perfect frames encountered here repay the debt instead of
// being handed out (§5), so the call may consume more frames than it maps.
func (k *Kernel) MmapRelaxed(npages int) (*Region, error) {
	if npages <= 0 {
		panic("kernel: MmapRelaxed with non-positive page count")
	}
	k.charge(stats.EvSyscall)
	k.mu.Lock()
	defer k.mu.Unlock()
	frames := make([]int, 0, npages)
	for len(frames) < npages {
		f, ok := k.placement.NextRelaxed(k)
		if !ok {
			return nil, ErrOutOfMemory
		}
		if k.placement.Repay(k, f) {
			// Repay: the relaxed allocator declines the perfect page and
			// fetches another instead (§5). The declined page is consumed —
			// this is the one-page space penalty of the earlier borrow
			// materializing.
			k.debt--
			k.repaid++
			k.takeFrameLocked(f)
			k.charge(stats.EvPageRepay)
			continue
		}
		k.takeFrameLocked(f)
		frames = append(frames, f)
	}
	return k.makeRegion(frames), nil
}

// popReleasedLocked pops the most recently released frame, skipping stale
// entries for frames a policy remap has re-taken in the meantime.
func (k *Kernel) popReleasedLocked() (int, bool) {
	for n := len(k.released); n > 0; n = len(k.released) {
		f := k.released[n-1]
		k.released = k.released[:n-1]
		if !k.taken[f] {
			return f, true
		}
	}
	return 0, false
}

func (k *Kernel) nextRelaxedFrame() (int, bool) {
	if f, ok := k.popReleasedLocked(); ok {
		return f, true
	}
	for k.cursor < k.pcmPages {
		f := k.cursor
		k.cursor++
		if !k.taken[f] {
			return f, true
		}
	}
	return 0, false
}

// MmapPerfect requests npages of perfect memory for fussy, page-grained
// allocators. Perfect PCM frames are used while they last (repaid reserve
// first); after that DRAM is borrowed and the debt recorded. borrowed
// reports how many of the returned pages came from DRAM.
func (k *Kernel) MmapPerfect(npages int) (r *Region, borrowed int) {
	if npages <= 0 {
		panic("kernel: MmapPerfect with non-positive page count")
	}
	k.charge(stats.EvSyscall)
	k.mu.Lock()
	defer k.mu.Unlock()
	frames := make([]int, 0, npages)
	for len(frames) < npages {
		if f, ok := k.placement.NextPerfect(k); ok {
			k.takeFrameLocked(f)
			frames = append(frames, f)
			continue
		}
		// Borrow DRAM: a one-page space penalty recorded as debt.
		f := k.dramNext
		k.dramNext++
		k.debt++
		k.borrows++
		borrowed++
		k.charge(stats.EvPageBorrow)
		frames = append(frames, f)
	}
	return k.makeRegion(frames), borrowed
}

func (k *Kernel) nextPerfectFrame() (int, bool) {
	for k.perfectHead < len(k.perfectQueue) {
		f := k.perfectQueue[k.perfectHead]
		k.perfectHead++
		if !k.taken[f] {
			// The counted window shrank past a free entry — whether it is
			// returned below or skipped as dirtied, the scan no longer sees
			// it.
			k.perfectFree--
		}
		// Skip frames consumed by relaxed mappings or dirtied by dynamic
		// failures since the queue was built.
		if !k.taken[f] && k.bitmaps[f] == 0 {
			return f, true
		}
	}
	return 0, false
}

func (k *Kernel) makeRegion(frames []int) *Region {
	r := &Region{Base: k.vnext, Pages: len(frames), k: k}
	k.vnext += uint64(len(frames)) * failmap.PageSize
	k.mapped += len(frames)
	if old, need := k.table.Load().pte, int(k.vnext/failmap.PageSize); need > len(old) {
		grown := make([]atomic.Uint64, max(need, 2*len(old)))
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		k.table.Store(&pageTable{pte: grown})
	}
	for i, f := range frames {
		k.setFrameLocked(r, i, f)
	}
	k.regions = append(k.regions, r)
	return r
}

// setFrameLocked is the one writer of a translation: it points virtual page
// `page` of r at frame, or unmaps it when frame is -1, keeps the reverse map
// in step and returns the frame the page was on (-1 when it was unmapped).
// makeRegion grew the table over the region when it mapped it.
func (k *Kernel) setFrameLocked(r *Region, page, frame int) (old int) {
	pte := &k.table.Load().pte[r.Base/failmap.PageSize+uint64(page)]
	if old = int(pte.Load()) - 1; old >= 0 {
		delete(k.reverse, old)
	}
	pte.Store(uint64(frame + 1))
	if frame >= 0 {
		k.reverse[frame] = reversed{region: r, page: page}
	}
	return old
}

// Translate resolves a virtual address to its physical frame and the byte
// offset within the page (the forward page-table walk). It takes no lock.
func (k *Kernel) Translate(vaddr uint64) (frame, offset int, ok bool) {
	pte := k.table.Load().pte
	vpn := vaddr / failmap.PageSize
	if vpn >= uint64(len(pte)) {
		return 0, 0, false
	}
	e := pte[vpn].Load()
	if e == 0 {
		return 0, 0, false
	}
	return int(e - 1), int(vaddr % failmap.PageSize), true
}

// pageAtLocked resolves a virtual address to its region and page index
// (forward walk, then the reverse map); the region is nil when unmapped.
func (k *Kernel) pageAtLocked(vaddr uint64) reversed {
	frame, _, ok := k.Translate(vaddr)
	if !ok {
		return reversed{}
	}
	return k.reverse[frame]
}

// Release unmaps a region and returns its PCM frames to the pool (used by
// runtimes that shrink). DRAM frames simply vanish. The region must not be
// used again: its addresses no longer translate.
func (k *Kernel) Release(r *Region) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := slices.Index(k.regions, r)
	if i < 0 {
		panic(fmt.Sprintf("kernel: Release of unmapped region at %#x", r.Base))
	}
	k.regions = slices.Delete(k.regions, i, i+1)
	for p := 0; p < r.Pages; p++ {
		f := k.setFrameLocked(r, p, -1)
		if f >= k.pcmPages {
			continue
		}
		k.freeFrameLocked(f)
		k.released = append(k.released, f)
	}
	k.mapped -= r.Pages
}

// MapFailures is the map-failures system call: the failure map of a mapped
// region, one bit per line, translated to the region's virtual layout.
func (k *Kernel) MapFailures(r *Region) *failmap.Map {
	k.charge(stats.EvSyscall)
	k.mu.Lock()
	defer k.mu.Unlock()
	m := failmap.New(r.Size())
	for i := 0; i < r.Pages; i++ {
		m.SetPageBitmap(i, k.frameBitmap(r.Frame(i)))
	}
	return m
}

func (k *Kernel) frameBitmap(f int) uint64 {
	if f >= k.pcmPages {
		return 0 // DRAM is perfect
	}
	return k.bitmaps[f]
}

// FrameFailedLines returns the failure-table bitmap of a physical frame
// (one bit per line; DRAM frames are always clean). It reads the table
// without charging a system call, for verifiers that cross-check runtime
// line states against the OS view.
func (k *Kernel) FrameFailedLines(f int) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.frameBitmap(f)
}

// Device returns the PCM device backing the pool, or nil.
func (k *Kernel) Device() *pcm.Device { return k.device }

// TableRawSize returns the uncompressed size in bytes of the OS failure
// table (§3.2.1: ~1.6% of the PCM pool).
func (k *Kernel) TableRawSize() int { return k.pcmPages * 8 }

// TableCompressedSize returns the RLE-compressed size of the failure table.
func (k *Kernel) TableCompressedSize() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tableLocked().CompressedSize()
}

// serviceDevice drains the PCM failure buffer: for each record the kernel
// reverse-translates the physical line to a virtual address, revokes access
// (updating its failure table), and accumulates the up-call batch. Failures
// on unmapped frames only update the table. The batch is delivered in one
// up-call, passing the preserved data (§3.2.2).
//
// The table and reverse-map updates happen under mu; the up-call is
// delivered after the lock is released, because the handler typically
// collects and re-enters the kernel through MmapRelaxed.
func (k *Kernel) serviceDevice() {
	if k.device == nil {
		return
	}
	k.mu.Lock()
	var batch []LineFailure
	for {
		rec, ok := k.device.Drain()
		if !ok {
			break
		}
		frame := rec.Line / failmap.LinesPerPage
		lineIn := rec.Line % failmap.LinesPerPage
		if frame < k.pcmPages {
			// A formerly perfect page leaves the perfect pool; the stale
			// queue entry is skipped lazily in nextPerfectFrame via the
			// bitmap check.
			k.bitmaps[frame] |= 1 << uint(lineIn)
		}
		rv, mapped := k.reverse[frame]
		if !mapped {
			continue // failure on an unallocated frame: table-only
		}
		k.charge(stats.EvReverseXlate)
		if k.handler == nil && k.remapUnaware {
			// No runtime handler: the OS hides the failure by remapping the
			// page per the remap policy (§3.2 for the stock pair: redirect
			// to a perfect frame). The buffered data is already preserved in
			// host memory; only the frame changes.
			k.remap.OnUnawareFailure(k, rv.region, rv.page)
			continue
		}
		vaddr := rv.region.Base + uint64(rv.page)*failmap.PageSize + uint64(lineIn)*failmap.LineSize
		batch = append(batch, LineFailure{VAddr: vaddr, Data: rec.Data, Fake: rec.Fake})
	}
	handler := k.handler
	k.mu.Unlock()
	if len(batch) > 0 && handler != nil {
		k.charge(stats.EvUpcall)
		if k.probe != nil {
			k.probe(probe.OSUpcall, batch[0].VAddr)
		}
		handler.HandleFailures(batch)
	}
}

// ServiceDevice drains the PCM failure buffer now, delivering any pending
// up-calls — the explicit form of the interrupt service the kernel wires to
// the device's failure and watermark interrupts.
func (k *Kernel) ServiceDevice() { k.serviceDevice() }

// writeRetryBudget bounds the drain-and-retry rounds WriteLine performs
// when the device refuses writes at the failure-buffer watermark.
const writeRetryBudget = 8

// ErrWriteStalled reports that a line write could not complete because the
// failure buffer stayed at its watermark through the whole drain-and-retry
// budget; errors.Is(err, pcm.ErrStalled) holds.
var ErrWriteStalled = fmt.Errorf("kernel: write stalled beyond %d drain-and-retry rounds: %w",
	writeRetryBudget, pcm.ErrStalled)

// WriteLine writes one line of data through to the PCM device backing the
// virtual address, applying wear and end-to-end backpressure: when the
// device stalls at the failure-buffer watermark (pcm.ErrStalled), the
// kernel drains the buffer — delivering failure up-calls — and retries,
// bounded by writeRetryBudget rounds with the stall cost charged per round.
// Writes to DRAM frames, or with no device configured, succeed without
// wear. The caller keeps host memory authoritative; this models the
// endurance and backpressure consequences of the store.
func (k *Kernel) WriteLine(vaddr uint64, data []byte) error {
	if k.device == nil {
		return nil
	}
	frame, off, ok := k.Translate(vaddr)
	if !ok {
		return fmt.Errorf("kernel: WriteLine to unmapped address %#x", vaddr)
	}
	if frame >= k.pcmPages {
		return nil // DRAM absorbs writes without wear
	}
	line := frame*failmap.LinesPerPage + off/failmap.LineSize
	for attempt := 0; ; attempt++ {
		err := k.device.Write(line, data)
		if err == nil {
			// The remap policy observes completed writes (wear tracking);
			// the stock policy is a no-op, charging nothing.
			k.remap.OnWrite(k, frame)
			return nil
		}
		if attempt >= writeRetryBudget {
			return ErrWriteStalled
		}
		if k.probe != nil {
			k.probe(probe.PCMStallRetry, uint64(line))
		}
		k.serviceDevice()
	}
}

// InjectDynamicFailure marks a line of a mapped region as failed and
// delivers the up-call, modelling a dynamic failure without a device (used
// by experiments that inject failures at chosen instants, mirroring §5's
// fault-injection module).
func (k *Kernel) InjectDynamicFailure(r *Region, page, lineInPage int, data []byte) {
	if page < 0 || page >= r.Pages || lineInPage < 0 || lineInPage >= failmap.LinesPerPage {
		panic("kernel: InjectDynamicFailure out of range")
	}
	k.mu.Lock()
	f := r.Frame(page)
	if f < k.pcmPages {
		k.bitmaps[f] |= 1 << uint(lineInPage)
	}
	handler := k.handler
	k.mu.Unlock()
	k.charge(stats.EvInterrupt)
	k.charge(stats.EvReverseXlate)
	vaddr := r.Base + uint64(page)*failmap.PageSize + uint64(lineInPage)*failmap.LineSize
	if handler != nil {
		k.charge(stats.EvUpcall)
		handler.HandleFailures([]LineFailure{{VAddr: vaddr, Data: data}})
	}
}

// SwapInPlacement chooses a destination frame for swapping a page back in,
// following §3.2.3: with clustering, any free frame with the same number or
// fewer failures than the source works (rule 3); otherwise only a frame
// with a failure superset... the paper notes subset matching has limited
// efficacy, so without clustering the kernel falls back to a perfect frame
// (rule 1). Returns the chosen frame and whether a perfect fallback was
// used.
func (k *Kernel) SwapInPlacement(srcBitmap uint64, clustered bool) (frame int, perfectFallback bool, err error) {
	k.charge(stats.EvSwapIn)
	k.mu.Lock()
	defer k.mu.Unlock()
	if clustered {
		need := bits.OnesCount64(srcBitmap)
		for p := 0; p < k.pcmPages; p++ {
			if k.taken[p] {
				continue
			}
			if bits.OnesCount64(k.bitmaps[p]) <= need && clusteredAtEdge(k.bitmaps[p]) {
				k.takeFrameLocked(p)
				return p, false, nil
			}
		}
	} else {
		// Exact-superset match: destination failures must be a subset of the
		// source's so every working source line lands on a working line.
		for p := 0; p < k.pcmPages; p++ {
			if k.taken[p] {
				continue
			}
			if k.bitmaps[p]&^srcBitmap == 0 && k.bitmaps[p] != 0 {
				k.takeFrameLocked(p)
				return p, false, nil
			}
		}
	}
	if f, ok := k.nextPerfectFrame(); ok {
		k.takeFrameLocked(f)
		return f, true, nil
	}
	return 0, false, ErrOutOfMemory
}

// clusteredAtEdge reports whether a page bitmap has all failures contiguous
// at one edge (the shape clustering hardware guarantees).
func clusteredAtEdge(bm uint64) bool {
	if bm == 0 {
		return true
	}
	// All ones at the bottom: bm == (1<<k)-1; at the top: bm == ^((1<<k)-1).
	bottom := bm&(bm+1) == 0
	inv := ^bm
	top := inv&(inv+1) == 0
	return bottom || top
}
