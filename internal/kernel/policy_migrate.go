package kernel

// The "migrate" policy: MigrantStore/CARAM-style hybrid DRAM/PCM tiering.
// Perfect requests prefer the scarce DRAM pool while a budget remains
// (DRAM absorbs fussy-allocator write traffic without wear), and the
// policy tracks per-frame write frequency, promoting write-hot PCM pages
// into DRAM once they cross migrateThreshold. Promotions are accounted as
// perfect-page borrows, but the debt is never repaid — the DRAM tier is a
// deliberate placement, not a loan — which leaves perfect PCM frames to the
// relaxed pool.

// migrateThreshold is how many observed line writes to one frame trigger a
// DRAM promotion.
const migrateThreshold = 128

// migratePolicy keeps per-frame write counts (volatile) and a durable
// cumulative promotion count.
type migratePolicy struct {
	paperPolicy
	counts     map[int]uint32
	migrations uint64 // durable
}

func (p *migratePolicy) Name() string { return "migrate" }

func (p *migratePolicy) NextPerfect(k *Kernel) (int, bool) {
	if k.dramUsed() < k.dramBudget() {
		return 0, false // prefer the DRAM tier while budget remains
	}
	return k.nextPerfectFrame()
}

func (p *migratePolicy) Repay(*Kernel, int) bool { return false }

func (p *migratePolicy) OnWrite(k *Kernel, frame int) {
	k.mu.Lock()
	if p.counts == nil {
		p.counts = make(map[int]uint32)
	}
	p.counts[frame]++
	due := p.counts[frame] >= migrateThreshold && k.dramUsed() < k.dramBudget()
	if due {
		delete(p.counts, frame)
	}
	k.mu.Unlock()
	if !due {
		return
	}
	if k.PolicyPromoteFrame(frame) {
		k.mu.Lock()
		p.migrations++
		k.persistPolicyLocked()
		k.mu.Unlock()
	}
}

func (p *migratePolicy) Save() []byte { return saveCounter(p.migrations) }

func (p *migratePolicy) Restore(data []byte) error {
	return restoreCounter("migrate", data, &p.migrations)
}
