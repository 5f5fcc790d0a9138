package pcm

import (
	"math/rand"

	"wearmem/internal/failmap"
	"wearmem/internal/stats"
)

// math/rand's seeded source is the additive lagged-Fibonacci generator
// x[n] = x[n−lag] + x[n−tap] mod 2⁶⁴. trafficBlock is how many values a
// Traffic makes at a time.
const (
	lag          = 607
	tap          = 273
	trafficBlock = 2048
)

// Traffic is the value stream of rand.New(rand.NewSource(seed)).Int63 as a
// concrete type, so that drawing a wear study's lines or a kv request costs
// no interface call. The generator's whole state is its last 607 outputs:
// NewTraffic takes the first 607 Int63 values of math/rand's own seeded
// source, solves the recurrence back to the 607 before them, and continues
// from there a block at a time, one loop of adds with no wrap-around. A
// carry only flows upward, so the low 63 bits of every value — all of what
// Int63 returns, and so all of what Int31n and Float64 consume — are the
// source's; the top bit is not, and Traffic does not reproduce the source's
// Uint64.
type Traffic struct {
	x [lag + trafficBlock]uint64 // the lag values before the block, then the block
	i int                        // index in x of the next value; len(x) when the block is spent
}

// NewTraffic returns the stream math/rand seeds from seed, at its start.
func NewTraffic(seed int64) *Traffic {
	src := rand.NewSource(seed)
	var w [lag]uint64
	for k := range w {
		w[k] = uint64(src.Int63())
	}
	return trafficFrom(&w)
}

// trafficFrom returns the stream whose first lag values are w: it solves
// the recurrence back to the lag values before them and leaves those at the
// end of the buffer, where the first draw makes the first block from them.
func trafficFrom(w *[lag]uint64) *Traffic {
	var x [2 * lag]uint64
	copy(x[lag:], w[:])
	for k := lag - 1; k >= 0; k-- {
		x[k] = x[k+lag] - x[k+lag-tap]
	}
	t := &Traffic{i: lag + trafficBlock}
	copy(t.x[trafficBlock:], x[:lag])
	return t
}

// next makes the block after the current one from its last lag values and
// returns where index j of the buffer has moved to.
func (t *Traffic) next(j int) int {
	x := &t.x
	copy(x[:lag], x[trafficBlock:])
	for k := lag; k < len(x); k++ {
		x[k] = x[k-lag] + x[k-tap]
	}
	return j - trafficBlock
}

// int63 is the stream's next Int63.
func (t *Traffic) int63() int64 {
	if t.i == len(t.x) {
		t.i = t.next(t.i)
	}
	v := t.x[t.i]
	t.i++
	return int64(v << 1 >> 1)
}

// Float64 is math/rand's Rand.Float64 on this stream: the next Int63 over
// 2⁶³, drawn again in the one case in 2⁵⁴ where the quotient rounds to 1.
func (t *Traffic) Float64() float64 {
again:
	f := float64(t.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Intn is math/rand's Rand.Intn on this stream for n up to 2³¹−1, where it
// is Int31n(n). It panics for any other n.
func (t *Traffic) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("pcm: Traffic.Intn argument outside [1, 2³¹−1]")
	}
	v, j := t.candidate(t.i, int31nMax(uint32(n)))
	t.i = j
	return reduce(v, uint32(n))
}

// math/rand's Int31n(n), which is Intn(n) for n below 2³¹, with the part
// that divides by a module's line count worked out once per SkewedLines call
// and not once per draw: Int31n takes v = Int63()>>32, redraws while
// v > 2³¹−1−(2³¹ mod n), and returns v mod n; for a power of two nothing is
// redrawn and v mod n is a mask. The seeded stream and this arithmetic are
// frozen by the Go 1 promise.

// int31nMax is the highest candidate Int31n(n) keeps.
func int31nMax(n uint32) uint32 { return 1<<31 - 1 - (1<<31)%n }

// candidate returns Int31n's next candidate not above max from index j of x
// on, and the index after it, which is where Int31n would leave the stream.
// It stays within the inliner's budget (go build -gcflags=-m says so), and
// its caller keeps j in a local, so a draw is a load and a compare and no
// store through t.
func (t *Traffic) candidate(j int, max uint32) (uint32, int) {
	for {
		if j == len(t.x) {
			j = t.next(j)
		}
		v := uint32(t.x[j] << 1 >> 33) // Int63() >> 32
		j++
		if v <= max {
			return v, j
		}
	}
}

// reduce maps a kept candidate to [0, n).
func reduce(v, n uint32) int {
	if n&(n-1) == 0 {
		return int(v & (n - 1))
	}
	return int(v % n)
}

// SkewedLines fills dst with the next len(dst) module lines of the wear
// studies' write traffic: 90% of writes hit the hot quarter of the module,
// the rest land anywhere. It is the one definition of that traffic (§7.2
// ablation, examples/wearout, wearsim's hammer and population commands),
// and it draws exactly what rng.Intn(hot), rng.Intn(10) and, one time in
// ten, rng.Intn(lines) would per line on the math/rand generator t copies
// (TestSkewedLinesStream holds it to the literal calls), so no recorded
// wear study moves and filling in blocks consumes the stream precisely as a
// per-write loop would. The two thresholds that depend on the module are
// worked out once per call; a draw then costs one value of the stream and
// no division on a module whose page count is a power of two.
func (d *Device) SkewedLines(t *Traffic, dst []int) {
	hot, all := uint32(d.lines/4), uint32(d.lines)
	hotMax, allMax := int31nMax(hot), int31nMax(all)
	v, j := uint32(0), t.i // j lives in a register until the block is filled
	for i := range dst {
		v, j = t.candidate(j, hotMax)
		l := reduce(v, hot)
		if v, j = t.candidate(j, int31nMax(10)); reduce(v, 10) == 0 {
			v, j = t.candidate(j, allMax)
			l = reduce(v, all)
		}
		dst[i] = l
	}
	t.i = j
}

// WearThrough drives d with the skewed traffic stream of seed, draining
// every failure as the OS would, and calls reached(i) as the failure rate
// crosses targets[i] (ascending): exactly the loop that draws one line,
// writes it and drains, testing the rate before every write. The rate only
// moves when a write fails a line, and WriteRun returns at every such
// write, so WearThrough tests it only there, and stops at the first write
// that crosses a target. On a device where a write can do nothing but count
// wear until it reaches a line's endurance (countWear), only that write goes
// through WriteRun; elsewhere lines are drawn in blocks and fed to it, and
// indices drawn past the last crossing are never written.
func (d *Device) WearThrough(seed int64, targets []float64, reached func(i int)) {
	t := NewTraffic(seed)
	buf := make([]byte, failmap.LineSize)
	counting := d.cfg.WearLeveling != StartGap && d.array == nil && d.data == nil && d.cfg.Endurance > 0
	drawn := d.cfg.Endurance == 0
	block := make([]int, 512)
	next := block[:0] // drawn, not yet written
	writes, broken := []uint64(nil), []bool(nil)
	for i, target := range targets {
		for d.FailureRate() < target {
			if !drawn {
				// A wear study reaches every slot: draw every limit and make
				// every wear chunk resident, in one array per kind, before
				// the first write, so that countWear reads them with no test
				// of whether one is yet. A study that writes nothing draws
				// nothing, as the per-write loop does.
				d.mu.Lock()
				d.limit(d.wear.slots - 1)
				writes, broken = flatten(d.wear.writes, d.wear.slots), flatten(d.wear.broken, d.wear.slots)
				d.mu.Unlock()
				drawn = true
			}
			// With failures pending a write may be refused, or its own
			// failure may reach the watermark: WriteRun decides, so counting
			// waits for an empty buffer.
			switch {
			case counting && len(next) == 0 && d.BufferLen() == 0:
				block[0] = d.countWear(t, writes, broken)
				next = block[:1]
			case len(next) == 0:
				d.SkewedLines(t, block)
				next = block
			}
			n, _ := d.WriteRun(next, buf) // a write refused at the watermark stays in next
			next = next[n:]
			for d.BufferLen() > 0 {
				d.Drain()
			}
		}
		reached(i)
	}
}

// countWear draws lines as SkewedLines does and applies each one's write
// for as long as that write can only count wear, and returns, unwritten,
// the first line whose write would reach its endurance (and so fail it).
// The caller has checked that d neither levels
// nor clusters, stores no contents and has finite endurance, and that its
// buffer is empty: a write then fails nothing and stores nothing exactly
// when its line is broken or its count plus one stays below the line's
// endurance (worn's test), and it charges one EvPCMWrite, which the clock
// sums, so the counted writes are charged in one step before WriteRun
// takes the next. WearThrough has drawn every slot's limit and made the
// wear chunks the arrays writes and broken (flatten).
func (d *Device) countWear(t *Traffic, writes []uint64, broken []bool) int {
	hot, all := uint32(d.lines/4), uint32(d.lines)
	hotMax, allMax := int31nMax(hot), int31nMax(all)
	endurance := d.endurance
	var counted uint64
	v, j := uint32(0), t.i
	for {
		v, j = t.candidate(j, hotMax)
		l := reduce(v, hot)
		if v, j = t.candidate(j, int31nMax(10)); reduce(v, 10) == 0 {
			v, j = t.candidate(j, allMax)
			l = reduce(v, all)
		}
		d.mu.Lock()
		if !broken[l] && writes[l]+1 >= endurance[l] {
			if d.clock != nil {
				d.clock.Charge(stats.EvPCMWrite, counted)
			}
			d.mu.Unlock()
			t.i = j
			return l
		}
		writes[l]++
		d.mu.Unlock()
		counted++
	}
}
