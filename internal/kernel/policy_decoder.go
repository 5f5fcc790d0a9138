package kernel

import (
	"encoding/binary"
	"fmt"
)

// The "decoder" policy: WoLFRaM-style programmable address-decoder
// remapping. Placement is the paper's (the decoder sits below placement);
// the policy tracks per-frame write frequency and, once a frame absorbs
// decoderThreshold writes, swap-remaps it onto the least-worn free perfect
// frame — the software model of reprogramming the decoder entry that
// routes the hot address to a cold spare.

// decoderThreshold is how many observed line writes to one frame trigger a
// swap remap.
const decoderThreshold = 128

// decoderPolicy tracks per-frame write counts (volatile — the decoder's
// counters are SRAM) and a durable cumulative swap count.
type decoderPolicy struct {
	paperPolicy
	counts map[int]uint32
	swaps  uint64 // durable
}

func (p *decoderPolicy) Name() string { return "decoder" }

func (p *decoderPolicy) OnWrite(k *Kernel, frame int) {
	k.mu.Lock()
	if p.counts == nil {
		p.counts = make(map[int]uint32)
	}
	p.counts[frame]++
	due := p.counts[frame] >= decoderThreshold
	if due {
		delete(p.counts, frame)
	}
	k.mu.Unlock()
	if !due || k.device == nil {
		return
	}
	wear := k.device.PageWrites()
	k.mu.Lock()
	_, dst := k.rankFramesLocked(wear)
	k.mu.Unlock()
	if dst < 0 {
		return
	}
	if k.PolicyRemapFrame(frame, dst) {
		k.mu.Lock()
		p.swaps++
		k.persistPolicyLocked()
		k.mu.Unlock()
	}
}

func (p *decoderPolicy) Save() []byte { return saveCounter(p.swaps) }

func (p *decoderPolicy) Restore(data []byte) error { return restoreCounter("decoder", data, &p.swaps) }

// saveCounter is the durable blob of a policy whose only durable state is
// one cumulative counter.
func saveCounter(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }

// restoreCounter loads a saveCounter blob into *n; an empty blob leaves it.
func restoreCounter(policy string, data []byte, n *uint64) error {
	if len(data) == 0 {
		return nil
	}
	if len(data) != 8 {
		return fmt.Errorf("kernel: %s policy state is %d bytes, want 8", policy, len(data))
	}
	*n = binary.LittleEndian.Uint64(data)
	return nil
}
