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
	"math"
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
// read from the kernel's page table (a region is never unmapped).
func (r *Region) Frame(i int) int {
	if i < 0 || i >= r.Pages {
		panic(fmt.Sprintf("kernel: page %d outside the %d-page region at %#x", i, r.Pages, r.Base))
	}
	f, _, _ := r.k.Translate(r.Base + uint64(i)*failmap.PageSize)
	return f
}

// FailureHandler is the runtime up-call registered via
// RegisterFailureHandler (§3.2.2), passed the virtual address of each
// failed line. The handler must relocate affected data before returning;
// the kernel revokes access and updates its failure table before the call.
// The data a failed write meant to store stays in the device's failure
// buffer, which forwards reads of it until it drains (§3.1.1).
type FailureHandler interface {
	HandleFailures(vaddrs []uint64)
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
	// Policy names the frame policy ("paper", "rotate", "decoder",
	// "migrate"); empty means the stock "paper" policy. New panics on
	// unknown names — validate with NewPolicy first.
	Policy string
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
	mu     sync.Mutex
	clock  *stats.Clock
	device *pcm.Device
	probe  probe.Hook

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

	policy       Policy
	policyRemaps int // completed wear-triggered policy remaps

	dramNext int // next DRAM frame id (they are minted on demand)

	vnext uint64 // virtual address bump pointer

	// pte is the forward page table: one entry per virtual page below
	// VirtualLimit, holding the backing frame plus one so that the zero
	// value is an unmapped page; borrowDRAMLocked keeps frame numbers below
	// 2³² − 1 so that fits 32 bits. It is allocated once, at New, so
	// Translate walks it without mu; entries change only in setFrameLocked.
	pte []atomic.Uint32

	// reverse maps physical frame -> (region, page index) for interrupt
	// handling; the paper's reverse address translation. Frames are dense
	// (the PCM frames, then DRAM frames as borrowDRAMLocked mints them), so
	// it is indexed by frame; an unmapped frame's region is nil.
	reverse []reversed

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
	policy, err := NewPolicy(cfg.Policy)
	if err != nil {
		panic(err)
	}
	k := &Kernel{
		policy:   policy,
		clock:    cfg.Clock,
		device:   cfg.Device,
		probe:    cfg.Probe,
		pcmPages: cfg.PCMPages,
		bitmaps:  make([]uint64, cfg.PCMPages),
		taken:    make([]bool, cfg.PCMPages),
		dramNext: cfg.PCMPages,
		reverse:  make([]reversed, cfg.PCMPages),
		vnext:    failmap.PageSize, // keep virtual page 0 unmapped
		pte:      make([]atomic.Uint32, 3*cfg.PCMPages+4096),
	}
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

// PCMPages returns the size of the PCM pool in pages (immutable after
// construction).
func (k *Kernel) PCMPages() int { return k.pcmPages }

// VirtualLimit returns the end of the virtual address space the kernel
// hands out, in bytes: no region reaches past it, and a mapping that would
// is refused with ErrOutOfMemory. It is fixed at construction, so a runtime
// can size its address space once. Runtimes never return virtual space, so
// what they map is bounded by the pool: the limit is 3 × PCMPages + 4096
// pages, three times the pool for alignment gaps and borrowed DRAM, and
// 16 MB for the smallest pools' fixed overheads.
func (k *Kernel) VirtualLimit() uint64 { return uint64(len(k.pte)) * failmap.PageSize }

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

// ErrOutOfMemory is returned when the PCM pool cannot satisfy a request,
// or when the mapping would reach past VirtualLimit.
var ErrOutOfMemory = errors.New("kernel: out of memory")

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
	if !k.fitsLocked(npages) {
		return nil, ErrOutOfMemory
	}
	frames := make([]int, 0, npages)
	for len(frames) < npages {
		f, ok := k.policy.NextRelaxed(k)
		if !ok {
			return nil, ErrOutOfMemory
		}
		if k.policy.Repay(k, f) {
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
// reports how many of the returned pages came from DRAM. The one refusal
// is a mapping past VirtualLimit: DRAM is minted on demand.
func (k *Kernel) MmapPerfect(npages int) (r *Region, borrowed int, err error) {
	if npages <= 0 {
		panic("kernel: MmapPerfect with non-positive page count")
	}
	k.charge(stats.EvSyscall)
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.fitsLocked(npages) {
		return nil, 0, ErrOutOfMemory
	}
	frames := make([]int, 0, npages)
	for len(frames) < npages {
		if f, ok := k.policy.NextPerfect(k); ok {
			k.takeFrameLocked(f)
			frames = append(frames, f)
			continue
		}
		frames = append(frames, k.borrowDRAMLocked())
		borrowed++
	}
	return k.makeRegion(frames), borrowed, nil
}

// borrowDRAMLocked mints the next DRAM frame for a perfect page the PCM
// pool cannot supply: a one-page space penalty recorded as debt.
func (k *Kernel) borrowDRAMLocked() int {
	f := k.dramNext
	if uint64(f) >= math.MaxUint32 {
		panic("kernel: DRAM frame numbers exhausted: the page table stores frame+1 in 32 bits")
	}
	k.dramNext++
	k.reverse = append(k.reverse, reversed{})
	k.debt++
	k.borrows++
	k.charge(stats.EvPageBorrow)
	return f
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

// fitsLocked reports whether npages mapped at the cursor end within
// VirtualLimit.
func (k *Kernel) fitsLocked(npages int) bool {
	return k.vnext+uint64(npages)*failmap.PageSize <= k.VirtualLimit()
}

func (k *Kernel) makeRegion(frames []int) *Region {
	r := &Region{Base: k.vnext, Pages: len(frames), k: k}
	k.vnext += uint64(len(frames)) * failmap.PageSize
	k.mapped += len(frames)
	for i, f := range frames {
		k.setFrameLocked(r, i, f)
	}
	k.regions = append(k.regions, r)
	return r
}

// setFrameLocked is the one writer of a translation: it points virtual page
// `page` of r at frame, keeps the reverse map in step and returns the frame
// the page was on (-1 when it was unmapped).
func (k *Kernel) setFrameLocked(r *Region, page, frame int) (old int) {
	pte := &k.pte[r.Base/failmap.PageSize+uint64(page)]
	if old = int(pte.Load()) - 1; old >= 0 {
		k.reverse[old] = reversed{}
	}
	pte.Store(uint32(frame + 1))
	k.reverse[frame] = reversed{region: r, page: page}
	return old
}

// Translate resolves a virtual address to its physical frame and the byte
// offset within the page (the forward page-table walk). It takes no lock.
func (k *Kernel) Translate(vaddr uint64) (frame, offset int, ok bool) {
	vpn := vaddr / failmap.PageSize
	if vpn >= uint64(len(k.pte)) {
		return 0, 0, false
	}
	e := k.pte[vpn].Load()
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

// serviceDevice drains the PCM failure buffer: for each record the kernel
// reverse-translates the physical line to a virtual address, revokes access
// (updating its failure table), and accumulates the up-call batch. Failures
// on unmapped frames only update the table. The batch is delivered in one
// up-call (§3.2.2).
//
// The table and reverse-map updates happen under mu; the up-call is
// delivered after the lock is released, because the handler typically
// collects and re-enters the kernel through MmapRelaxed.
func (k *Kernel) serviceDevice() {
	if k.device == nil {
		return
	}
	k.mu.Lock()
	var batch []uint64
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
		if frame >= len(k.reverse) || k.reverse[frame].region == nil {
			continue // failure on an unallocated frame: table-only
		}
		rv := k.reverse[frame]
		k.charge(stats.EvReverseXlate)
		if k.handler == nil {
			// No runtime handler: the OS hides the failure by redirecting
			// the page to a perfect frame (§3.2). The buffered data is
			// already preserved in host memory; only the frame changes.
			k.handleUnawareLocked(rv.region, rv.page)
			continue
		}
		vaddr := rv.region.Base + uint64(rv.page)*failmap.PageSize + uint64(lineIn)*failmap.LineSize
		batch = append(batch, vaddr)
	}
	handler := k.handler
	k.mu.Unlock()
	if len(batch) > 0 && handler != nil {
		k.charge(stats.EvUpcall)
		if k.probe != nil {
			k.probe(probe.OSUpcall, batch[0])
		}
		handler.HandleFailures(batch)
	}
}

// ServiceDevice drains the PCM failure buffer now, delivering any pending
// up-calls — the explicit form of the interrupt service the kernel wires to
// the device's failure and watermark interrupts.
func (k *Kernel) ServiceDevice() { k.serviceDevice() }

// writeRetryBudget bounds the drain-and-retry rounds WriteLine and the
// recovery scrub perform when the device refuses writes at the
// failure-buffer watermark.
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
			// The policy observes completed writes (wear tracking); the
			// stock policy is a no-op, charging nothing.
			k.policy.OnWrite(k, frame)
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

// WriteLineRepeat is n WriteLine calls of the same data to vaddr taken as
// one device step (pcm.Device.WriteRepeat), and reports whether it was
// taken. With no device, or on a DRAM frame, it is true: each WriteLine
// would succeed there without wear or charge. It is false, doing nothing,
// on an unmapped address (the caller's per-line writes produce WriteLine's
// error), under a policy other than the stock one (which may migrate
// the frame at any write of the run), and when the device refuses the step.
func (k *Kernel) WriteLineRepeat(vaddr uint64, data []byte, n int) bool {
	if k.device == nil {
		return true
	}
	frame, off, ok := k.Translate(vaddr)
	if !ok {
		return false
	}
	if frame >= k.pcmPages {
		return true
	}
	if _, stock := k.policy.(paperPolicy); !stock {
		return false
	}
	return k.device.WriteRepeat(frame*failmap.LinesPerPage+off/failmap.LineSize, data, n)
}

// InjectDynamicFailure marks a line of a mapped region as failed and
// delivers the up-call, modelling a dynamic failure without a device (used
// by experiments that inject failures at chosen instants, mirroring §5's
// fault-injection module).
func (k *Kernel) InjectDynamicFailure(r *Region, page, lineInPage int) {
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
		handler.HandleFailures([]uint64{vaddr})
	}
}
