package kernel

import (
	"fmt"
	"math/bits"
	"math/rand"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

// Persistence of the failure table (§3.2.1): "When the system is shut
// down, the OS may save the failed line map to persistent storage and
// restore it on system initialization. Alternatively, the OS may rebuild
// the table by eagerly scanning memory or by lazily rediscovering failures
// at first write."

// SaveFailureTable serializes the OS failure table (RLE-encoded, the same
// format the tab3 ablation measures).
func (k *Kernel) SaveFailureTable() []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tableLocked().EncodeRLE()
}

// tableLocked returns the failure table as a map of the PCM pool: one page
// word per table entry.
func (k *Kernel) tableLocked() *failmap.Map {
	m := failmap.New(k.pcmPages * failmap.PageSize)
	for p, bm := range k.bitmaps {
		m.SetPageBitmap(p, bm)
	}
	return m
}

// RestoreFailureTable loads a saved failure table into a freshly booted
// kernel (before any mappings). The perfect-page queue is rebuilt.
func (k *Kernel) RestoreFailureTable(data []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.mapped != 0 {
		return fmt.Errorf("kernel: restore after mappings exist")
	}
	m, err := failmap.DecodeRLE(data)
	if err != nil {
		return err
	}
	if m.Lines() != k.pcmPages*failmap.LinesPerPage {
		return fmt.Errorf("kernel: saved table covers %d lines, pool has %d pages", m.Lines(), k.pcmPages)
	}
	k.perfectQueue = k.perfectQueue[:0]
	k.perfectHead = 0
	for p := 0; p < k.pcmPages; p++ {
		k.bitmaps[p] = m.PageBitmap(p)
		if k.bitmaps[p] == 0 {
			k.perfectQueue = append(k.perfectQueue, p)
		}
	}
	k.rebuildPerfectIndexLocked()
	return nil
}

// RediscoverFailures models recovery after an abnormal shutdown with no
// saved table: the OS eagerly scans the device, rediscovering every
// surfaced failure and rebuilding the table. The cost is proportional to
// the module size (§3.2.1).
func (k *Kernel) RediscoverFailures() int {
	if k.device == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	// One pass over the device for the whole map, then a table entry a
	// frame of the pool, which may be smaller than the module.
	m := k.device.FailMap()
	frames := min(m.Pages(), k.pcmPages)
	found := 0
	for frame := 0; frame < frames; frame++ {
		k.charge(stats.EvSwapIn) // page-scan granularity cost
		fresh := m.PageBitmap(frame) &^ k.bitmaps[frame]
		k.bitmaps[frame] |= fresh
		found += bits.OnesCount64(fresh)
	}
	return found
}

// HandleUnawareFailure resolves a failure on a page owned by a process
// without a registered runtime handler: the OS copies the page to a
// perfect frame and remaps it, preserving the illusion of perfect memory
// at the cost of a scarce perfect page (§3.2, "hide line failures from
// executing processes"). It returns the replacement frame.
func (k *Kernel) HandleUnawareFailure(r *Region, page int) (newFrame int, borrowed bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.handleUnawareLocked(r, page)
}

// handleUnawareLocked is HandleUnawareFailure with mu already held, for
// callers inside the interrupt service path.
func (k *Kernel) handleUnawareLocked(r *Region, page int) (newFrame int, borrowed bool) {
	if page < 0 || page >= r.Pages {
		panic("kernel: HandleUnawareFailure page out of range")
	}
	f, ok := k.placement.NextPerfect(k)
	if !ok {
		// Borrow DRAM, as for any perfect request.
		f = k.dramNext
		k.dramNext++
		k.debt++
		k.borrows++
		borrowed = true
		k.charge(stats.EvPageBorrow)
	} else {
		k.takeFrameLocked(f)
	}
	k.charge(stats.EvSwapIn) // the page copy
	if old := k.setFrameLocked(r, page, f); old < k.pcmPages {
		k.freeFrameLocked(old) // the imperfect frame returns to the pool
		k.released = append(k.released, old)
	}
	return f, borrowed
}

// RegionAt returns the mapped region containing the virtual address, or
// nil.
func (k *Kernel) RegionAt(vaddr uint64) *Region {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.pageAtLocked(vaddr).region
}

// RemapPageAt replaces the physical frame behind the virtual address with
// a perfect frame (the §3.3.3 pinned-object fallback). Returns ok=false
// when the address is unmapped.
func (k *Kernel) RemapPageAt(vaddr uint64) (borrowed, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	rv := k.pageAtLocked(vaddr)
	if rv.region == nil {
		return false, false
	}
	_, b := k.handleUnawareLocked(rv.region, rv.page)
	return b, true
}

// InjectRandomDynamicFailure marks a random line of a random mapped PCM
// frame as failed and delivers the up-call — the §5 fault-injection module
// applied at runtime, used by the dynamic-failure sweep experiment.
// Returns false when nothing is mapped.
func (k *Kernel) InjectRandomDynamicFailure(rng *rand.Rand) bool {
	// The candidate scan holds mu; the injection itself re-locks inside
	// InjectDynamicFailure because the up-call must run unlocked. The
	// baton serializes injectors, so the chosen line cannot be raced away
	// between the two critical sections.
	k.mu.Lock()
	var (
		r    *Region
		page int
		line int
	)
	found := false
	if len(k.regions) > 0 {
		for attempt := 0; attempt < 32; attempt++ {
			cr := k.regions[rng.Intn(len(k.regions))]
			p := rng.Intn(cr.Pages)
			f := cr.Frame(p)
			if f >= k.pcmPages {
				continue // DRAM: never fails
			}
			l := rng.Intn(failmap.LinesPerPage)
			if k.bitmaps[f]&(1<<uint(l)) != 0 {
				continue // already failed
			}
			r, page, line = cr, p, l
			found = true
			break
		}
	}
	k.mu.Unlock()
	if !found {
		return false
	}
	k.InjectDynamicFailure(r, page, line, make([]byte, failmap.LineSize))
	return true
}
