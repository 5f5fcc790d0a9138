package kernel

import (
	"encoding/binary"
	"fmt"
)

// The "rotate" policy: SoftWear-style software wear-leveling. Instead of
// concentrating early allocations (and their wear) on the low frames,
// relaxed placement hands out frames from a wrapping cursor, and every
// rotatePeriod observed writes the hottest mapped page rotates onto the
// coldest free perfect frame, keyed off the device's per-page wear counts.

const (
	// rotatePeriod is how many observed PCM line writes separate rotation
	// attempts.
	rotatePeriod = 2048
	// rotateMinGap is the minimum hot-cold wear delta (in line writes) that
	// justifies paying for a page copy.
	rotateMinGap = 64
)

// rotatePolicy spreads relaxed allocations around the pool with a wrapping
// scan cursor; released frames are still reused first (the stack is the
// cheapest source), and perfect requests use the stock queue. The cursor
// and the cumulative rotation count are durable: a recovered kernel
// resumes rotating where the old life stopped instead of resetting to
// frame zero. The inter-rotation write counter is volatile and
// legitimately resets at boot.
type rotatePolicy struct {
	paperPolicy
	next      int    // wrapping scan origin (durable)
	seen      uint64 // writes since the last rotation attempt (volatile)
	rotations uint64 // completed rotations (durable)
}

func (p *rotatePolicy) Name() string { return "rotate" }

func (p *rotatePolicy) NextRelaxed(k *Kernel) (int, bool) {
	if f, ok := k.popReleasedLocked(); ok {
		return f, true
	}
	for scanned := 0; scanned < k.pcmPages; scanned++ {
		f := p.next % k.pcmPages
		p.next = (p.next + 1) % k.pcmPages
		if !k.taken[f] {
			return f, true
		}
	}
	return 0, false
}

func (p *rotatePolicy) OnWrite(k *Kernel, frame int) {
	k.mu.Lock()
	p.seen++
	due := p.seen >= rotatePeriod
	if due {
		p.seen = 0
	}
	k.mu.Unlock()
	if !due || k.device == nil {
		return
	}
	wear := k.device.PageWrites()
	k.mu.Lock()
	src, dst := k.rankFramesLocked(wear)
	k.mu.Unlock()
	if src < 0 || dst < 0 || wear[src] < wear[dst]+rotateMinGap {
		return
	}
	if k.PolicyRemapFrame(src, dst) {
		k.mu.Lock()
		p.rotations++
		k.persistPolicyLocked()
		k.mu.Unlock()
	}
}

func (p *rotatePolicy) Save() []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(p.next))
	binary.LittleEndian.PutUint64(b[8:], p.rotations)
	return b[:]
}

func (p *rotatePolicy) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if len(data) != 16 {
		return fmt.Errorf("kernel: rotate policy state is %d bytes, want 16", len(data))
	}
	p.next = int(binary.LittleEndian.Uint64(data[:8]))
	if p.next < 0 {
		p.next = 0
	}
	p.rotations = binary.LittleEndian.Uint64(data[8:])
	return nil
}
