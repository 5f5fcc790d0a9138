package kernel

import (
	"errors"
	"fmt"
	"math/bits"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
)

// Recovery after an unclean shutdown (power cut) on a worn device. The
// durable ground truth is the device itself — per-line broken state and
// redirection maps survive in PCM — while everything the OS kept in DRAM
// (the failure table, page tables, the perfect-page queue) and everything
// the device kept in SRAM (the failure buffer's parked data) is gone. The
// protocol is a state machine:
//
//	drain  — retire the orphaned failure-buffer residue the restored
//	         device re-parked with torn data; their lines enter the table
//	         but their contents are unrecoverable.
//	rescan — eagerly scan the device, rebuilding the per-page failed-line
//	         bitmaps from ground truth (§3.2.1's "rebuild the table by
//	         eagerly scanning memory").
//	scrub  — rewrite the working lines of every page that carries a
//	         failure, refreshing cells whose writes may have torn at the
//	         cut. Scrub writes wear the device like any write: a genuinely
//	         worn device can fail further lines during its own recovery,
//	         which the drain-and-retry ladder absorbs.
//	admit  — rebuild the perfect-page queue and decide whether enough
//	         usable frames remain to host a runtime; if not, the device
//	         has reached its graceful end of life (ErrDeviceWornOut).
type RecoverOptions struct {
	// MinFrames is the minimum number of usable PCM frames (frames with at
	// least one working line) the recovered pool must offer; fewer means
	// the device is past usability and Recover returns ErrDeviceWornOut.
	// Zero skips the admission check.
	MinFrames int
	// MaxRetries bounds the drain-and-retry rounds when a scrub write
	// stalls at the failure-buffer watermark (default 8).
	MaxRetries int
	// SkipScrub disables the scrub pass (a clean shutdown has no torn
	// cells, so a quiescent snapshot-and-restore needs no refresh).
	SkipScrub bool
}

// RecoverStats reports what one recovery pass did.
type RecoverStats struct {
	// Orphans is how many torn failure-buffer entries the drain retired.
	Orphans int
	// Rediscovered is how many failed lines the rescan added to the table.
	Rediscovered int
	// Scrubbed is how many working lines the scrub refreshed.
	Scrubbed int
	// ScrubFailures is how many lines failed during their own scrub write.
	ScrubFailures int
	// Retries counts drain-and-retry rounds taken on stalled scrub writes.
	Retries int
	// UsableFrames is how many PCM frames still have at least one working
	// line after recovery.
	UsableFrames int
	// WorkingLines is the total working-line count across the pool.
	WorkingLines int
	// PolicyRestored reports whether durable placement/remap policy state
	// was found in the device's OS metadata area and loaded (it is absent
	// for the stateless stock policies, or when the configured policy names
	// differ from the ones that wrote the record).
	PolicyRestored bool
	// Cycles is the simulated time the recovery pass charged (zero without
	// a clock).
	Cycles stats.Cycles
}

// ErrDeviceWornOut is the graceful-degradation terminal state: recovery
// found the device past usability (too few usable frames to host a
// runtime). It is a clean, typed end of life — callers stop resuscitating
// the module instead of panicking into it.
var ErrDeviceWornOut = errors.New("kernel: device worn out, too few usable frames to recover")

// Recover rebuilds the kernel's view of a restored device after an unclean
// shutdown. It must run on a freshly booted kernel (no mappings yet) whose
// Config.Device came from pcm.NewDeviceFromImage — though it is equally
// valid, and a no-op beyond the rescan, on a cleanly restored device.
func (k *Kernel) Recover(opt RecoverOptions) (RecoverStats, error) {
	var st RecoverStats
	if k.device == nil {
		return st, errors.New("kernel: Recover without a device")
	}
	if opt.MaxRetries <= 0 {
		opt.MaxRetries = writeRetryBudget
	}
	k.mu.Lock()
	mapped := k.mapped
	k.mu.Unlock()
	if mapped != 0 {
		return st, fmt.Errorf("kernel: Recover after mappings exist")
	}
	var start stats.Cycles
	if k.clock != nil {
		start = k.clock.Now()
	}

	// Drain: retire the torn residue. No frames are mapped yet, so every
	// entry is table-only; the parked data was lost with the SRAM buffer
	// and the restored entries carry zeroes.
	st.Orphans = k.device.BufferLen()
	k.serviceDevice()

	// Rescan: the device's broken state is ground truth; fold every
	// surfaced failure into the table.
	st.Rediscovered = k.RediscoverFailures()

	// Scrub: refresh the working lines of pages carrying failures. A write
	// that exhausts a worn line's endurance fails it right here — recovery
	// itself wears the device — and the resulting buffer entries drain
	// through the normal interrupt path (table-only, nothing is mapped).
	if !opt.SkipScrub {
		if err := k.scrub(&st, opt.MaxRetries); err != nil {
			return st, err
		}
	}

	// Admit: rebuild the perfect-page queue from the recovered table and
	// count what remains.
	k.mu.Lock()
	k.perfectQueue = k.perfectQueue[:0]
	k.perfectHead = 0
	for p := 0; p < k.pcmPages; p++ {
		if k.bitmaps[p] == 0 {
			k.perfectQueue = append(k.perfectQueue, p)
		}
		if k.bitmaps[p] != ^uint64(0) {
			st.UsableFrames++
		}
		st.WorkingLines += failmap.LinesPerPage - bits.OnesCount64(k.bitmaps[p])
	}
	k.rebuildPerfectIndexLocked()

	// Restore durable policy state from the device's OS metadata area
	// (rotation origin, cumulative remap counters). A missing or
	// mismatched record just means fresh policy state.
	st.PolicyRestored = k.restorePolicyLocked()
	k.mu.Unlock()
	if k.clock != nil {
		st.Cycles = k.clock.Now() - start
	}
	if opt.MinFrames > 0 && st.UsableFrames < opt.MinFrames {
		return st, ErrDeviceWornOut
	}
	return st, nil
}

// scrub rewrites the working lines of every frame that carries failures,
// reading each line back and writing it in place. Stalls at the failure
// buffer's watermark drain and retry up to maxRetries rounds per line; a
// line that stays stalled through the whole ladder means failures are
// arriving faster than the OS can retire them — the device is worn out.
func (k *Kernel) scrub(st *RecoverStats, maxRetries int) error {
	buf := make([]byte, failmap.LineSize)
	for p := 0; p < k.pcmPages; p++ {
		k.mu.Lock()
		bm := k.bitmaps[p]
		k.mu.Unlock()
		if bm == 0 {
			continue
		}
		for l := 0; l < failmap.LinesPerPage; l++ {
			k.mu.Lock()
			dead := k.bitmaps[p]&(1<<uint(l)) != 0
			k.mu.Unlock()
			if dead {
				continue
			}
			line := p*failmap.LinesPerPage + l
			k.device.Read(line, buf)
			wrote := false
			for attempt := 0; attempt <= maxRetries; attempt++ {
				err := k.device.Write(line, buf)
				if err == nil {
					wrote = true
					break
				}
				if !errors.Is(err, pcm.ErrStalled) {
					return err
				}
				st.Retries++
				k.serviceDevice()
			}
			if !wrote {
				return ErrDeviceWornOut
			}
			st.Scrubbed++
			k.mu.Lock()
			if k.bitmaps[p]&(1<<uint(l)) != 0 {
				st.ScrubFailures++ // the scrub write itself wore the line out
			}
			k.mu.Unlock()
		}
	}
	return nil
}
