package kernel

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"
	"strings"

	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// The frame-policy layer. The paper's answer to wearable-memory holes is
// one fixed scheme — low-first frame placement, perfect-page borrowing
// with debit-credit repayment (§5), and reactive retire-and-redirect on
// failure — but the related work names concrete rivals: SoftWear's
// software address rotation, WoLFRaM's programmable address-decoder
// remapping, MigrantStore/CARAM's hybrid DRAM/PCM tiering. The kernel
// consults one pluggable Policy so those rivals run under identical
// workloads. The stock policy ("paper") reproduces the historical behavior
// instruction for instruction, so default runs stay byte-identical; the
// rivals embed it and override only what they change.

// Policy decides which physical frames back new mappings — the scan order
// for relaxed (imperfect) requests, the source of perfect frames for fussy
// requests, whether a perfect frame met by the relaxed path repays
// outstanding DRAM debt (§5) — and how the kernel reacts to wear observed
// on the write path. NextRelaxed, NextPerfect and Repay are called with
// the kernel lock held; implementations compose the kernel's frame-scan
// helpers rather than re-entering locked entry points.
type Policy interface {
	// Name returns the registered policy name.
	Name() string
	// NextRelaxed picks the next frame for an imperfect request.
	NextRelaxed(k *Kernel) (frame int, ok bool)
	// NextPerfect picks the next perfect PCM frame for a fussy request or
	// an unaware process's failed page; ok=false makes the kernel borrow a
	// DRAM page instead.
	NextPerfect(k *Kernel) (frame int, ok bool)
	// Repay reports whether the relaxed path should consume frame to repay
	// one page of outstanding perfect-page debt instead of mapping it.
	Repay(k *Kernel, frame int) bool
	// OnWrite observes one successful PCM line write to frame. Called
	// without the kernel lock; implementations take k.mu for their own
	// state and use PolicyRemapFrame/PolicyPromoteFrame for migrations.
	OnWrite(k *Kernel, frame int)
	// Save serializes the policy's durable state (nil when stateless). It
	// is written to the device's OS metadata area at every remap boundary
	// and survives power cuts.
	Save() []byte
	// Restore loads state captured by Save into a freshly booted policy.
	Restore(data []byte) error
}

var policies = map[string]func() Policy{
	"paper":   func() Policy { return paperPolicy{} },
	"rotate":  func() Policy { return &rotatePolicy{} },
	"decoder": func() Policy { return &decoderPolicy{} },
	"migrate": func() Policy { return &migratePolicy{} },
}

// Policies lists the registered policy names, sorted.
func Policies() []string { return slices.Sorted(maps.Keys(policies)) }

// NewPolicy builds a registered policy; the empty name means the stock
// "paper" policy.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		name = "paper"
	}
	f, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("kernel: unknown policy %q (have %s)", name, strings.Join(Policies(), ", "))
	}
	return f(), nil
}

// paperPolicy is the paper's scheme verbatim: low-first relaxed cursor
// with released-frame reuse, address-ordered perfect queue, debit-credit
// repayment while debt is outstanding, and nothing on writes. A failure on
// an unaware process's page is retired and redirected by the kernel itself
// (handleUnawareLocked), under every policy.
type paperPolicy struct{}

func (paperPolicy) Name() string                      { return "paper" }
func (paperPolicy) NextRelaxed(k *Kernel) (int, bool) { return k.nextRelaxedFrame() }
func (paperPolicy) NextPerfect(k *Kernel) (int, bool) { return k.nextPerfectFrame() }
func (paperPolicy) Repay(k *Kernel, frame int) bool {
	return k.bitmaps[frame] == 0 && k.debt > 0
}
func (paperPolicy) OnWrite(*Kernel, int) {}
func (paperPolicy) Save() []byte         { return nil }
func (paperPolicy) Restore([]byte) error { return nil }

// policyImage is the durable policy record kept in the device's OS
// metadata area: the configured policy's name and its opaque state blob.
// It is rewritten at every remap boundary, so the record a power cut
// leaves behind reflects the last completed remap.
type policyImage struct {
	Name  string
	State []byte
}

// persistPolicyLocked writes the current policy state to the device's OS
// metadata area. Called with k.mu held (k.mu → Device.mu is the
// established lock order); a nil device makes it a no-op.
func (k *Kernel) persistPolicyLocked() {
	if k.device == nil {
		return
	}
	img := policyImage{Name: k.policy.Name(), State: k.policy.Save()}
	var buf bytes.Buffer
	if gob.NewEncoder(&buf).Encode(&img) == nil {
		k.device.SetOSBlob(buf.Bytes())
	}
}

// restorePolicyLocked loads the policy record from the device's OS
// metadata area, if one exists and matches the configured policy's name.
// A missing, torn, foreign-format or mismatched record simply means fresh
// policy state — the durable ground truth (wear, failures) lives in the
// device itself.
func (k *Kernel) restorePolicyLocked() bool {
	if k.device == nil {
		return false
	}
	blob := k.device.OSBlob()
	if len(blob) == 0 {
		return false
	}
	var img policyImage
	if gob.NewDecoder(bytes.NewReader(blob)).Decode(&img) != nil {
		return false
	}
	return img.Name == k.policy.Name() && k.policy.Restore(img.State) == nil
}

// PolicyName returns the name of the configured policy.
func (k *Kernel) PolicyName() string { return k.policy.Name() }

// PolicyRemaps returns how many wear-triggered policy remaps (frame
// migrations and DRAM promotions) have completed.
func (k *Kernel) PolicyRemaps() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.policyRemaps
}

// dramUsed reports how many DRAM frames have been minted so far.
func (k *Kernel) dramUsed() int { return k.dramNext - k.pcmPages }

// dramBudget bounds the scarce DRAM pool available to tiering policies.
func (k *Kernel) dramBudget() int {
	b := k.pcmPages / 64
	if b < 8 {
		b = 8
	}
	return b
}

// policyPairValidLocked checks that src is a mapped perfect PCM frame and
// dst a free perfect PCM frame, the precondition for a migration that is
// invisible to the runtime (both sides clean, so the vaddr-keyed line
// states never change).
func (k *Kernel) policyPairValidLocked(src, dst int) bool {
	if k.device == nil || src == dst {
		return false
	}
	if src < 0 || dst < 0 || src >= k.pcmPages || dst >= k.pcmPages {
		return false
	}
	if k.reverse[src].region == nil {
		return false
	}
	if k.taken[dst] {
		return false
	}
	if k.reverse[dst].region != nil {
		return false
	}
	return k.bitmaps[src] == 0 && k.bitmaps[dst] == 0
}

// PolicyRemapFrame migrates the mapped page on perfect PCM frame src onto
// the free perfect PCM frame dst: the device lines are copied (wearing dst
// like any writes), then the page-table entry and reverse map swing over
// and src returns to the pool. Both frames must be perfect before and
// after the copy — the runtime keys its line states by virtual address, so
// a perfect-to-perfect swap needs no notification. Returns false when
// validation fails at any stage (concurrent failures or remaps made the
// pair stale, or the copy itself wore dst out); callers simply skip the
// round. On success the policy-remap probe point fires with the page's
// virtual address and the durable policy state is persisted by the caller.
func (k *Kernel) PolicyRemapFrame(src, dst int) bool {
	k.mu.Lock()
	if !k.policyPairValidLocked(src, dst) {
		k.mu.Unlock()
		return false
	}
	rv := k.reverse[src]
	k.takeFrameLocked(dst)
	k.mu.Unlock()

	// Copy outside the lock: device writes deliver interrupt callbacks that
	// re-enter the kernel through serviceDevice.
	ok := k.copyFrameLines(src, dst)

	k.mu.Lock()
	if !ok || k.reverse[src] != rv || k.bitmaps[src] != 0 || k.bitmaps[dst] != 0 {
		// Stale pair or the copy wore dst: undo the claim. dst may re-enter
		// the released stack twice; nextRelaxedFrame skips taken entries.
		k.freeFrameLocked(dst)
		k.released = append(k.released, dst)
		k.mu.Unlock()
		return false
	}
	k.charge(stats.EvSwapIn)
	k.setFrameLocked(rv.region, rv.page, dst)
	k.freeFrameLocked(src)
	k.released = append(k.released, src)
	k.policyRemaps++
	vaddr := rv.region.Base + uint64(rv.page)*failmap.PageSize
	k.mu.Unlock()
	if k.probe != nil {
		k.probe(probe.PolicyRemap, vaddr)
	}
	return true
}

// copyFrameLines copies every device line of frame src onto frame dst with
// the scrub pass's drain-and-retry ladder. Reads don't wear; the writes
// wear dst like any store. A line that stays stalled through the budget
// aborts the copy.
func (k *Kernel) copyFrameLines(src, dst int) bool {
	buf := make([]byte, failmap.LineSize)
	for l := 0; l < failmap.LinesPerPage; l++ {
		k.device.Read(src*failmap.LinesPerPage+l, buf)
		line := dst*failmap.LinesPerPage + l
		wrote := false
		for attempt := 0; attempt <= writeRetryBudget; attempt++ {
			if err := k.device.Write(line, buf); err == nil {
				wrote = true
				break
			}
			if k.probe != nil {
				k.probe(probe.PCMStallRetry, uint64(line))
			}
			k.serviceDevice()
		}
		if !wrote {
			return false
		}
	}
	return true
}

// PolicyPromoteFrame migrates the mapped page on perfect PCM frame src
// into the DRAM pool (MigrantStore/CARAM-style promotion). No device copy
// is needed — host memory stays authoritative and DRAM absorbs writes
// without wear — but the move is accounted like any perfect-page borrow:
// debt and borrows rise, and the relaxed allocator's repayment rules (per
// the policy) apply. Returns false when src is not a mapped
// perfect PCM frame.
func (k *Kernel) PolicyPromoteFrame(src int) bool {
	k.mu.Lock()
	if src < 0 || src >= k.pcmPages || k.reverse[src].region == nil || k.bitmaps[src] != 0 {
		k.mu.Unlock()
		return false
	}
	rv := k.reverse[src]
	f := k.borrowDRAMLocked()
	k.charge(stats.EvSwapIn)
	k.setFrameLocked(rv.region, rv.page, f)
	k.freeFrameLocked(src)
	k.released = append(k.released, src)
	k.policyRemaps++
	vaddr := rv.region.Base + uint64(rv.page)*failmap.PageSize
	k.mu.Unlock()
	if k.probe != nil {
		k.probe(probe.PolicyRemap, vaddr)
	}
	return true
}

// rankFramesLocked scans the perfect PCM frames once against the device's
// per-page wear counts and returns the most-worn mapped frame and the
// least-worn free one, each the first of its ties, or -1 where there is
// none. Called with k.mu held; wear is the caller's PageWrites snapshot
// (taken unlocked — PolicyRemapFrame revalidates the frames anyway).
func (k *Kernel) rankFramesLocked(wear []uint64) (hot, cold int) {
	hot, cold = -1, -1
	for f := range min(k.pcmPages, len(wear)) {
		if k.bitmaps[f] != 0 {
			continue
		}
		if k.reverse[f].region != nil {
			if hot < 0 || wear[f] > wear[hot] {
				hot = f
			}
		} else if !k.taken[f] && (cold < 0 || wear[f] < wear[cold]) {
			cold = f
		}
	}
	return hot, cold
}
