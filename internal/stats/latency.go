package stats

import "math/bits"

// Per-operation latency capture for the server scenarios: an HDR-style
// fixed-bucket log-scale histogram of simulated cycles. The layout is a
// compile-time constant — no dynamic resizing — so merging shards and
// re-running a configuration produce byte-identical reports, and a
// histogram is a plain value that can be copied and diffed.
//
// Values are bucketed with latSubBits bits of sub-bucket resolution per
// octave: values below latSubCount are exact, larger values land in the
// bucket whose upper bound is at most 1/latSubCount (~3%) above them.
// Quantile always returns a bucket upper bound clamped to the observed
// maximum, so hist.Quantile(q) >= the exact q-quantile, within that
// relative error.

const (
	latSubBits  = 5
	latSubCount = 1 << latSubBits // 32 sub-buckets per octave
	// latBuckets covers every uint64 value: the linear region (which
	// coincides with octave zero) plus one octave of latSubCount buckets
	// per remaining leading-bit position, the last of which peaks at
	// index (64-latSubBits+1)*latSubCount - 1 for ^uint64(0).
	latBuckets = (64 - latSubBits + 1) * latSubCount
)

// latBucketOf maps a value to its bucket index. The linear region (values
// below latSubCount) and the first octave coincide, so indices are
// continuous and monotone in the value.
func latBucketOf(v uint64) int {
	if v < latSubCount {
		return int(v)
	}
	top := bits.Len64(v) - 1        // index of the highest set bit
	shift := uint(top - latSubBits) // v>>shift is in [latSubCount, 2*latSubCount)
	return int((uint64(shift)+1)*latSubCount + (v >> shift) - latSubCount)
}

// latBucketMax returns the largest value mapping to bucket b.
func latBucketMax(b int) Cycles {
	if b < latSubCount {
		return Cycles(b)
	}
	shift := uint(b/latSubCount - 1)
	r := uint64(b % latSubCount)
	return Cycles(((latSubCount + r + 1) << shift) - 1)
}

// Histogram is a fixed-bucket log-scale latency histogram over simulated
// cycles. The zero value is empty and ready to use. A Histogram is not
// safe for concurrent use; concurrent recorders use one shard per mutator
// (see LatencyRecorder) and merge deterministically afterwards.
type Histogram struct {
	counts [latBuckets]uint64
	total  uint64
	sum    Cycles
	max    Cycles
}

// Record adds one observation.
func (h *Histogram) Record(v Cycles) {
	h.counts[latBucketOf(uint64(v))]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h. Merging is commutative and associative on the
// bucket counts; max and sum are exact, so any merge order yields the same
// histogram.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the largest recorded observation (0 when empty).
func (h *Histogram) Max() Cycles { return h.max }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() Cycles { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() Cycles {
	if h.total == 0 {
		return 0
	}
	return h.sum / Cycles(h.total)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper bound of the first bucket at which the cumulative count reaches
// ceil(q * total), clamped to the observed maximum. Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) Cycles {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total))
	if float64(target) < q*float64(h.total) {
		target++
	}
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			ub := latBucketMax(b)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// stallEvents are the allocation slow-path and backpressure events whose
// cost-weighted time Clock.StallCycles attributes to allocation stalls:
// the bump allocator skipping failed line runs, block fetches, overflow
// searches, free-list and LOS allocation, and write-throughs stalled on a
// full failure buffer.
var stallEvents = [...]Event{
	EvLineSkip, EvBlockFetch, EvOverflowSearch,
	EvFreeListAlloc, EvLOSAlloc, EvFailBufStall,
}

// StallCycles returns the cost-weighted simulated time this clock has
// spent in allocation-stall events. Deltas of this value bracket an
// operation's stall attribution.
func (c *Clock) StallCycles() Cycles {
	c.mu.Lock() // no defer: latency capture calls this twice per operation
	var t Cycles
	for _, e := range stallEvents {
		t += Cycles(c.counts[e]) * c.costs[e]
	}
	c.mu.Unlock()
	return t
}

// LatencyShard accumulates one mutator's per-operation latency: the
// operation histogram plus the attribution histograms of the GC-pause and
// allocation-stall portions. Shards are single-writer (the owning
// mutator) and merged deterministically in shard order by Report.
type LatencyShard struct {
	All   Histogram // total per-operation latency
	GC    Histogram // GC-pause cycles per op, for ops that absorbed a pause
	Stall Histogram // allocation-stall cycles per op, for ops that stalled

	GCCycles    Cycles // total GC-pause cycles attributed to operations
	StallCycles Cycles // total allocation-stall cycles attributed
}

// RecordOp records one operation: its total latency and the GC-pause and
// allocation-stall portions attributed to it. The attribution histograms
// only record operations actually affected, so their quantiles answer
// "when an op hits a pause, how bad is it" rather than being drowned by
// zeros.
func (s *LatencyShard) RecordOp(total, gc, stall Cycles) {
	s.All.Record(total)
	if gc > 0 {
		s.GC.Record(gc)
		s.GCCycles += gc
	}
	if stall > 0 {
		s.Stall.Record(stall)
		s.StallCycles += stall
	}
}

// LatencyRecorder owns the per-mutator latency shards of one run. All
// shards are allocated up front, so Shard is a pure index lookup and safe
// to call from concurrent mutator goroutines.
type LatencyRecorder struct {
	shards []*LatencyShard
}

// NewLatencyRecorder returns a recorder with n shards (one per mutator).
func NewLatencyRecorder(n int) *LatencyRecorder {
	if n < 1 {
		n = 1
	}
	r := &LatencyRecorder{shards: make([]*LatencyShard, n)}
	for i := range r.shards {
		r.shards[i] = &LatencyShard{}
	}
	return r
}

// Shard returns mutator i's shard.
func (r *LatencyRecorder) Shard(i int) *LatencyShard { return r.shards[i] }

// QuantileSummary is the JSON-friendly quantile digest of one histogram.
type QuantileSummary struct {
	Ops  uint64 `json:"ops"`
	Mean Cycles `json:"mean"`
	P50  Cycles `json:"p50"`
	P90  Cycles `json:"p90"`
	P99  Cycles `json:"p99"`
	P999 Cycles `json:"p999"`
	Max  Cycles `json:"max"`
}

// Summarize digests a histogram into its quantile summary.
func Summarize(h *Histogram) QuantileSummary {
	return QuantileSummary{
		Ops:  h.Count(),
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Max:  h.Max(),
	}
}

// LatencyReport is the merged latency digest of one run: overall
// per-operation quantiles plus the GC-pause and allocation-stall
// attribution (quantiles over affected operations, and the share of total
// operation time each class consumed). It is embedded in the harness
// Result, so it must encode deterministically: all fields are integers
// and the merge is performed in shard order.
type LatencyReport struct {
	Ops        uint64          `json:"ops"`
	Overall    QuantileSummary `json:"overall"`
	GCPause    QuantileSummary `json:"gcPause"`
	AllocStall QuantileSummary `json:"allocStall"`

	// TotalCycles is the summed latency of all operations; GCPauseCycles
	// and AllocStallCycles are the portions attributed to GC pauses and
	// allocation stalls.
	TotalCycles      Cycles `json:"totalCycles"`
	GCPauseCycles    Cycles `json:"gcPauseCycles"`
	AllocStallCycles Cycles `json:"allocStallCycles"`
}

// Report merges the shards (in shard order — deterministic for any
// interleaving, since merging is order-insensitive) and digests them. A
// capture that was off (a nil recorder) or saw no operation has no report.
func (r *LatencyRecorder) Report() *LatencyReport {
	if r == nil {
		return nil
	}
	var all, gc, stall Histogram
	var gcCycles, stallCycles Cycles
	for _, s := range r.shards {
		all.Merge(&s.All)
		gc.Merge(&s.GC)
		stall.Merge(&s.Stall)
		gcCycles += s.GCCycles
		stallCycles += s.StallCycles
	}
	if all.Count() == 0 {
		return nil
	}
	return &LatencyReport{
		Ops:              all.Count(),
		Overall:          Summarize(&all),
		GCPause:          Summarize(&gc),
		AllocStall:       Summarize(&stall),
		TotalCycles:      all.Sum(),
		GCPauseCycles:    gcCycles,
		AllocStallCycles: stallCycles,
	}
}
