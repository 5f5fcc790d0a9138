package kv

import (
	"wearmem/internal/heap"
	"wearmem/internal/seeded"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// opTimer measures one operation's simulated latency and attributes its
// GC-pause and allocation-stall portions. On the baton engine the mutator
// charges the shared clock, so the clock delta already contains any
// collection the operation triggered; on the threaded engine the mutator
// charges a private shard that excludes collections, so the GC delta is
// added on top. GC deltas are race-free on both engines: collections only
// run while every other mutator is parked, so the counter is quiescent
// whenever the owning mutator executes. Stall attribution is the
// cost-weighted delta of the clock's allocation-stall events; on the
// threaded engine failure-buffer stalls are charged to the shared kernel
// clock and therefore only attributed by the deterministic baton oracle.
type opTimer struct {
	clk   *stats.Clock
	gc    func() stats.Cycles
	addGC bool // clk is a private shard excluding GC pauses
	shard *stats.LatencyShard

	t0, g0, s0 stats.Cycles
}

// newOpTimer builds the timer for mutator m, or nil (a no-op) when latency
// capture is off.
func newOpTimer(m *vm.Mutator, shard *stats.LatencyShard) *opTimer {
	if shard == nil {
		return nil
	}
	return &opTimer{shard: shard, clk: m.Clock(), gc: m.GCCycles, addGC: m.Clock() != m.VM().Clock()}
}

func (t *opTimer) begin() {
	if t == nil {
		return
	}
	t.t0, t.g0, t.s0 = t.clk.Now(), t.gc(), t.clk.StallCycles()
}

func (t *opTimer) end() {
	if t == nil {
		return
	}
	gc := t.gc() - t.g0
	total := t.clk.Now() - t.t0
	if t.addGC {
		total += gc
	}
	t.shard.RecordOp(total, gc, t.clk.StallCycles()-t.s0)
}

// body runs one mutator's share of the scenario: a private table plus
// operations against the shared one, phase by phase. It is deterministic
// per (profile name, mutator index) — the baton engine interleaves
// mutators deterministically, so whole runs are byte-identical. The
// request stream is math/rand's seeded stream, drawn from seeded.Stream,
// the concrete copy of it the wear studies use.
func (s *scenario) body(p *workload.Profile, api *vm.Mutator, mut, mutators, iterations int, yield func()) error {
	c := s.cfg
	rng := seeded.New(int64(len(p.Name))*31 + 0x5eed + 7919*int64(mut))

	var shard *stats.LatencyShard
	if p.Latency != nil {
		shard = p.Latency(mut)
	}
	t := newOpTimer(api, shard)

	// The private table: this mutator's uncontended slice of the key
	// space (Keys/4 in aggregate, so the live set stays roughly mutator
	// count invariant).
	privKeys := c.Keys / 4 / mutators
	if privKeys < 16 {
		privKeys = 16
	}
	var privBuckets heap.Addr
	api.AddRoot(&privBuckets)
	defer api.RemoveRoot(&privBuckets)
	b, err := api.NewArray(s.refsT, privKeys)
	if err != nil {
		return err
	}
	privBuckets = b

	// scratch carries a freshly allocated value across the entry
	// allocation inside put — rooted, so the moving collector updates it.
	var scratch heap.Addr
	api.AddRoot(&scratch)
	defer api.RemoveRoot(&scratch)

	// Phase schedule: operation op is in phase op/phaseLen, which rotates
	// the hot-key region and write-biases every other phase. The phase's
	// numbers change only at the next boundary.
	totalOps := iterations * c.OpsPerIter
	phaseLen := totalOps / c.Phases
	if phaseLen < 1 {
		phaseLen = 1
	}
	var hotBase, boundary int
	var rr float64
	op := 0
	for it := 0; it < iterations; it++ {
		for k := 0; k < c.OpsPerIter; k++ {
			// Per-op safepoint poll on the threaded engine (an atomic
			// load; the baton engine parks at yield() instead).
			api.Safepoint()
			if op == boundary {
				phase := op / phaseLen
				hotBase = (phase % c.Phases) * (c.Keys / c.Phases)
				rr = c.ReadRatio
				if phase%2 == 1 {
					rr /= 2
				}
				boundary += phaseLen
			}
			read := rng.Float64() < rr
			shared := rng.Float64() < c.Contention

			t.begin()
			var err error
			if shared {
				key := uint64((s.rank(rng.Float64()) + hotBase) % c.Keys)
				if read {
					s.get(api, &s.sharedBuckets, c.Keys, key, true)
				} else {
					err = s.put(api, &s.sharedBuckets, c.Keys, key, true, &scratch, rng)
				}
			} else {
				key := uint64(s.rank(rng.Float64()) % privKeys)
				if read {
					s.get(api, &privBuckets, privKeys, key, false)
				} else {
					err = s.put(api, &privBuckets, privKeys, key, false, &scratch, rng)
				}
			}
			if err != nil {
				return err
			}
			t.end()
			op++
		}
		yield()
	}
	return nil
}

// find walks bucket b's chain for key. Callers hold the stripe when the
// table is shared.
func (s *scenario) find(api *vm.Mutator, buckets heap.Addr, b int, key uint64) heap.Addr {
	e := api.ArrayRef(buckets, b)
	for e != 0 && api.ReadWord(e, entryKey) != key {
		e = api.ReadRef(e, entryNext)
	}
	return e
}

// get serves one read: chain walk, then a byte per served PCM line of the
// value. No allocation happens inside the stripe.
func (s *scenario) get(api *vm.Mutator, buckets *heap.Addr, n int, key uint64, locked bool) {
	b := int(key % uint64(n))
	stripe := &s.locks[b%stripes]
	if locked {
		stripe.Lock()
	}
	vlen := 0
	if e := s.find(api, *buckets, b, key); e != 0 {
		if val := api.ReadRef(e, entryVal); val != 0 {
			vlen = api.ArrayLen(val)
			for i := 0; i < vlen; i += 64 {
				_ = api.ArrayByte(val, i)
			}
		}
	}
	if locked {
		stripe.Unlock()
	}
	api.Work(1 + vlen/256)
}

// put upserts one key with a fresh value. Allocation is strictly outside
// the stripe (see the scenario.locks invariant): the value allocates
// first with nothing held, the entry — only needed on insert — allocates
// between the lookup and a re-checked link, with the value parked in the
// rooted scratch slot across that GC point.
func (s *scenario) put(api *vm.Mutator, buckets *heap.Addr, n int, key uint64, locked bool, scratch *heap.Addr, rng *seeded.Stream) error {
	c := s.cfg
	vlen := c.ValueMin + rng.Intn(c.ValueMax-c.ValueMin+1)
	val, err := api.NewArray(s.bytesT, vlen)
	if err != nil {
		return err
	}
	// Fill the value: one store per PCM line, the write traffic that
	// wears the device in write-through runs.
	for i := 0; i < vlen; i += 64 {
		api.SetArrayByte(val, i, byte(key))
	}
	*scratch = val

	b := int(key % uint64(n))
	stripe := &s.locks[b%stripes]
	if locked {
		stripe.Lock()
	}
	if e := s.find(api, *buckets, b, key); e != 0 {
		// Overwrite: swap the value ref; the old value dies here.
		api.WriteRef(e, entryVal, *scratch)
		if locked {
			stripe.Unlock()
		}
		*scratch = 0
		api.Work(2)
		return nil
	}
	if locked {
		stripe.Unlock()
	}

	// Insert: allocate the entry outside the stripe (a GC point — the
	// value survives via scratch), then re-check under the stripe, since
	// another mutator may have inserted the key meanwhile.
	ent, err := api.New(s.entryT)
	if err != nil {
		*scratch = 0
		return err
	}
	api.WriteWord(ent, entryKey, key)
	api.WriteRef(ent, entryVal, *scratch)
	if locked {
		stripe.Lock()
	}
	if e := s.find(api, *buckets, b, key); e != 0 {
		api.WriteRef(e, entryVal, api.ReadRef(ent, entryVal)) // lost the race; ent is garbage
	} else {
		api.WriteRef(ent, entryNext, api.ArrayRef(*buckets, b))
		api.SetArrayRef(*buckets, b, ent)
	}
	if locked {
		stripe.Unlock()
	}
	*scratch = 0
	api.Work(2)
	return nil
}
