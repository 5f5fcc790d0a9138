package kernel

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"

	"wearmem/internal/failmap"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// The placement/remap policy layer. The paper's answer to wearable-memory
// holes is one fixed policy — low-first frame placement, perfect-page
// borrowing with debit-credit repayment (§5), and reactive
// retire-and-redirect on failure — but the related work names concrete
// rivals: SoftWear's software address rotation, WoLFRaM's programmable
// address-decoder remapping, MigrantStore/CARAM's hybrid DRAM/PCM tiering.
// The kernel consults two pluggable policies so those rivals run under
// identical workloads: a PlacementPolicy choosing frames for mappings and
// a RemapPolicy reacting to failures and observed wear. The stock pair
// ("paper") reproduces the historical behavior instruction for
// instruction, so default runs stay byte-identical.

// PlacementPolicy decides which physical frames back new mappings: the
// scan order for relaxed (imperfect) requests, the source of perfect
// frames for fussy requests, and whether a perfect frame encountered by
// the relaxed path repays outstanding DRAM debt (§5). Every method is
// called with the kernel lock held; implementations compose the kernel's
// frame-scan helpers rather than re-entering locked entry points.
type PlacementPolicy interface {
	// Name returns the registered policy name.
	Name() string
	// NextRelaxed picks the next frame for an imperfect request.
	NextRelaxed(k *Kernel) (frame int, ok bool)
	// NextPerfect picks the next perfect PCM frame for a fussy request;
	// ok=false makes the kernel borrow a DRAM page instead.
	NextPerfect(k *Kernel) (frame int, ok bool)
	// Repay reports whether the relaxed path should consume frame to repay
	// one page of outstanding perfect-page debt instead of mapping it.
	Repay(k *Kernel, frame int) bool
	// Save serializes the policy's durable state (nil when stateless). It
	// is written to the device's OS metadata area at every remap boundary
	// and survives power cuts.
	Save() []byte
	// Restore loads state captured by Save into a freshly booted policy.
	Restore(data []byte) error
}

// RemapPolicy decides what the kernel does beyond the paper's reactive
// retire-and-redirect: how it responds to wear observed on the write path
// (periodic rotation, decoder-style swaps, hot-page promotion to DRAM) and
// to failures on pages of handler-less processes.
type RemapPolicy interface {
	// Name returns the registered policy name.
	Name() string
	// OnWrite observes one successful PCM line write to frame. Called
	// without the kernel lock; implementations take k.mu for their own
	// state and use PolicyRemapFrame/PolicyPromoteFrame for migrations.
	OnWrite(k *Kernel, frame int)
	// OnUnawareFailure resolves a device failure on a mapped page of a
	// process without a runtime handler. Called with the kernel lock held;
	// the destination must present perfect memory (a perfect PCM frame or
	// borrowed DRAM).
	OnUnawareFailure(k *Kernel, r *Region, page int) (newFrame int, borrowed bool)
	// Save and Restore carry durable policy state across power cuts, like
	// their PlacementPolicy counterparts.
	Save() []byte
	Restore(data []byte) error
}

var placementFactories = map[string]func() PlacementPolicy{
	"paper":   func() PlacementPolicy { return &stockPlacement{name: "paper"} },
	"rotate":  func() PlacementPolicy { return &rotatePlacement{} },
	"decoder": func() PlacementPolicy { return &stockPlacement{name: "decoder"} },
	"migrate": func() PlacementPolicy { return &migratePlacement{} },
}

var remapFactories = map[string]func() RemapPolicy{
	"paper":   func() RemapPolicy { return &paperRemap{} },
	"rotate":  func() RemapPolicy { return &rotateRemap{} },
	"decoder": func() RemapPolicy { return &decoderRemap{} },
	"migrate": func() RemapPolicy { return &migrateRemap{} },
}

// PlacementPolicies lists the registered placement policy names, sorted.
func PlacementPolicies() []string { return sortedKeys(placementFactories) }

// RemapPolicies lists the registered remap policy names, sorted.
func RemapPolicies() []string { return sortedKeys(remapFactories) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewPlacementPolicy builds a registered placement policy; the empty name
// means the stock "paper" policy.
func NewPlacementPolicy(name string) (PlacementPolicy, error) {
	if name == "" {
		name = "paper"
	}
	f, ok := placementFactories[name]
	if !ok {
		return nil, fmt.Errorf("kernel: unknown placement policy %q (have %s)",
			name, strings.Join(PlacementPolicies(), ", "))
	}
	return f(), nil
}

// NewRemapPolicy builds a registered remap policy; the empty name means
// the stock "paper" policy.
func NewRemapPolicy(name string) (RemapPolicy, error) {
	if name == "" {
		name = "paper"
	}
	f, ok := remapFactories[name]
	if !ok {
		return nil, fmt.Errorf("kernel: unknown remap policy %q (have %s)",
			name, strings.Join(RemapPolicies(), ", "))
	}
	return f(), nil
}

// stockPlacement is the paper's placement verbatim: low-first relaxed
// cursor with released-frame reuse, address-ordered perfect queue, and
// debit-credit repayment while debt is outstanding. The "decoder" policy
// shares it — WoLFRaM innovates purely in the remap stage.
type stockPlacement struct{ name string }

func (p *stockPlacement) Name() string                      { return p.name }
func (p *stockPlacement) NextRelaxed(k *Kernel) (int, bool) { return k.nextRelaxedFrame() }
func (p *stockPlacement) NextPerfect(k *Kernel) (int, bool) { return k.nextPerfectFrame() }
func (p *stockPlacement) Repay(k *Kernel, frame int) bool {
	return k.bitmaps[frame] == 0 && k.debt > 0
}
func (p *stockPlacement) Save() []byte         { return nil }
func (p *stockPlacement) Restore([]byte) error { return nil }

// paperRemap is the paper's reactive behavior: nothing happens on writes,
// and an unaware-process failure retires the frame and redirects the page
// to a perfect frame (borrowing DRAM when none remains).
type paperRemap struct{}

func (paperRemap) Name() string         { return "paper" }
func (paperRemap) OnWrite(*Kernel, int) {}
func (paperRemap) OnUnawareFailure(k *Kernel, r *Region, page int) (int, bool) {
	return k.handleUnawareLocked(r, page)
}
func (paperRemap) Save() []byte         { return nil }
func (paperRemap) Restore([]byte) error { return nil }

// policyImage is the durable policy record kept in the device's OS
// metadata area: the configured policy names plus each policy's opaque
// state blob. It is rewritten at every remap boundary, so the record a
// power cut leaves behind reflects the last completed remap.
type policyImage struct {
	Placement      string
	Remap          string
	PlacementState []byte
	RemapState     []byte
}

// persistPolicyLocked writes the current policy state to the device's OS
// metadata area. Called with k.mu held (k.mu → Device.mu is the
// established lock order); a nil device makes it a no-op.
func (k *Kernel) persistPolicyLocked() {
	if k.device == nil {
		return
	}
	img := policyImage{
		Placement:      k.placement.Name(),
		Remap:          k.remap.Name(),
		PlacementState: k.placement.Save(),
		RemapState:     k.remap.Save(),
	}
	var buf bytes.Buffer
	if gob.NewEncoder(&buf).Encode(&img) == nil {
		k.device.SetOSBlob(buf.Bytes())
	}
}

// PersistPolicyState writes the current policy state to the device's OS
// metadata area now. Remap boundaries persist automatically; callers use
// this before a planned shutdown so a clean snapshot carries the freshest
// state.
func (k *Kernel) PersistPolicyState() {
	k.mu.Lock()
	k.persistPolicyLocked()
	k.mu.Unlock()
}

// restorePolicyLocked loads the policy record from the device's OS
// metadata area, if one exists and matches the configured policy names.
// A missing, torn, or mismatched record simply means fresh policy state —
// the durable ground truth (wear, failures) lives in the device itself.
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
	if img.Placement != k.placement.Name() || img.Remap != k.remap.Name() {
		return false
	}
	if k.placement.Restore(img.PlacementState) != nil {
		return false
	}
	if k.remap.Restore(img.RemapState) != nil {
		return false
	}
	return true
}

// PolicyNames returns the names of the configured placement and remap
// policies.
func (k *Kernel) PolicyNames() (placement, remap string) {
	return k.placement.Name(), k.remap.Name()
}

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
	if _, mapped := k.reverse[src]; !mapped {
		return false
	}
	if k.taken[dst] {
		return false
	}
	if _, dstMapped := k.reverse[dst]; dstMapped {
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
	rv2, mapped := k.reverse[src]
	if !ok || !mapped || rv2 != rv || k.bitmaps[src] != 0 || k.bitmaps[dst] != 0 {
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
// the placement policy) apply. Returns false when src is not a mapped
// perfect PCM frame.
func (k *Kernel) PolicyPromoteFrame(src int) bool {
	k.mu.Lock()
	rv, mapped := k.reverse[src]
	if !mapped || src < 0 || src >= k.pcmPages || k.bitmaps[src] != 0 {
		k.mu.Unlock()
		return false
	}
	f := k.dramNext
	k.dramNext++
	k.debt++
	k.borrows++
	k.charge(stats.EvPageBorrow)
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

// hotColdPairLocked finds the most-worn mapped perfect PCM frame and the
// least-worn free perfect PCM frame from the device's per-page wear
// counts, requiring at least minGap line writes between them. Called with
// k.mu held; wear is the caller's PageWrites snapshot (taken unlocked —
// the pair is revalidated by PolicyRemapFrame anyway).
func (k *Kernel) hotColdPairLocked(wear []uint64, minGap uint64) (src, dst int, ok bool) {
	src, dst = -1, -1
	var hot, cold uint64
	limit := k.pcmPages
	if len(wear) < limit {
		limit = len(wear)
	}
	for f := 0; f < limit; f++ {
		if k.bitmaps[f] != 0 {
			continue
		}
		if _, mapped := k.reverse[f]; mapped {
			if src < 0 || wear[f] > hot {
				src, hot = f, wear[f]
			}
		} else if !k.taken[f] {
			if dst < 0 || wear[f] < cold {
				dst, cold = f, wear[f]
			}
		}
	}
	if src < 0 || dst < 0 || hot < cold+minGap {
		return 0, 0, false
	}
	return src, dst, true
}

// coldestFreePerfectLocked finds the least-worn free perfect PCM frame.
func (k *Kernel) coldestFreePerfectLocked(wear []uint64) (int, bool) {
	dst := -1
	var cold uint64
	limit := k.pcmPages
	if len(wear) < limit {
		limit = len(wear)
	}
	for f := 0; f < limit; f++ {
		if k.taken[f] || k.bitmaps[f] != 0 {
			continue
		}
		if _, mapped := k.reverse[f]; mapped {
			continue
		}
		if dst < 0 || wear[f] < cold {
			dst, cold = f, wear[f]
		}
	}
	return dst, dst >= 0
}
