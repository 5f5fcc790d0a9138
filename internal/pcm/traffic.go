package pcm

import (
	"wearmem/internal/failmap"
	"wearmem/internal/seeded"
	"wearmem/internal/stats"
)

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
func (d *Device) SkewedLines(t *seeded.Stream, dst []int) {
	hot, all := uint32(d.lines/4), uint32(d.lines)
	hotMax, allMax := seeded.Int31nMax(hot), seeded.Int31nMax(all)
	v, j := uint32(0), t.Index() // j lives in a register until the block is filled
	for i := range dst {
		v, j = t.Candidate(j, hotMax)
		l := seeded.Reduce(v, hot)
		if v, j = t.Candidate(j, seeded.Int31nMax(10)); seeded.Reduce(v, 10) == 0 {
			v, j = t.Candidate(j, allMax)
			l = seeded.Reduce(v, all)
		}
		dst[i] = l
	}
	t.SetIndex(j)
}

// WearThrough drives d with the skewed traffic stream of seed, draining
// every failure as the OS would, and calls reached(i) as the failure rate
// crosses targets[i] (ascending): exactly the loop that draws one line,
// writes it and drains, testing the rate before every write. The rate only
// moves when a write fails a line, and WriteRun returns at every such
// write, so WearThrough tests it only there, and stops at the first write
// that crosses a target. On a device where a write can do nothing but count
// wear until it, or the start-gap move before it, reaches a slot's
// endurance (countWear, countGapWear), only that write goes through
// WriteRun; elsewhere
// lines are drawn in blocks and fed to it, and indices drawn past the last
// crossing are never written.
func (d *Device) WearThrough(seed int64, targets []float64, reached func(i int)) {
	t := seeded.New(seed)
	buf := make([]byte, failmap.LineSize)
	counting := d.array == nil && d.data == nil && d.cfg.Endurance > 0
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
				if d.cfg.WearLeveling == StartGap {
					block[0] = d.countGapWear(t, writes, broken)
				} else {
					block[0] = d.countWear(t, writes, broken)
				}
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
func (d *Device) countWear(t *seeded.Stream, writes []uint64, broken []bool) int {
	hot, all := uint32(d.lines/4), uint32(d.lines)
	hotMax, allMax := seeded.Int31nMax(hot), seeded.Int31nMax(all)
	endurance := d.endurance
	var counted uint64
	v, j := uint32(0), t.Index()
	for {
		v, j = t.Candidate(j, hotMax)
		l := seeded.Reduce(v, hot)
		if v, j = t.Candidate(j, seeded.Int31nMax(10)); seeded.Reduce(v, 10) == 0 {
			v, j = t.Candidate(j, allMax)
			l = seeded.Reduce(v, all)
		}
		d.mu.Lock()
		if !broken[l] && writes[l]+1 >= endurance[l] {
			if d.clock != nil {
				d.clock.Charge(stats.EvPCMWrite, counted)
			}
			d.mu.Unlock()
			t.SetIndex(j)
			return l
		}
		writes[l]++
		d.mu.Unlock()
		counted++
	}
}

// countGapWear is countWear on a start-gap device. A write there moves the
// gap first when its interval is up (wearStep): the line below the gap is
// copied into it, one write of wear on the gap's slot, and the written
// line, which the move may have carried, then wears the slot it lies in
// after it. The write counts, gap move included, while neither of the two
// can reach its slot's endurance; the first one that could is returned
// unapplied, and WriteRun makes its move and its write. Nothing else a
// start-gap write does differs from a write on a device that does not
// level: without contents the move copies nothing, and it charges nothing.
func (d *Device) countGapWear(t *seeded.Stream, writes []uint64, broken []bool) int {
	hot, all := uint32(d.lines/4), uint32(d.lines)
	hotMax, allMax := seeded.Int31nMax(hot), seeded.Int31nMax(all)
	endurance, perm, occupant := d.endurance, d.perm, d.occupant
	var counted uint64
	v, j := uint32(0), t.Index()
	for {
		v, j = t.Candidate(j, hotMax)
		l := seeded.Reduce(v, hot)
		if v, j = t.Candidate(j, seeded.Int31nMax(10)); seeded.Reduce(v, 10) == 0 {
			v, j = t.Candidate(j, allMax)
			l = seeded.Reduce(v, all)
		}
		d.mu.Lock()
		s := int(perm[l])
		if d.sinceMove+1 < d.cfg.GapInterval {
			if broken[s] || writes[s]+1 < endurance[s] {
				d.sinceMove++
				writes[s]++
				d.mu.Unlock()
				counted++
				continue
			}
		} else {
			dst, src := d.gap, d.gap-1
			if src < 0 {
				src = int32(len(occupant)) - 1
			}
			moved := occupant[src]
			c := writes[s] + 1
			if moved == int32(l) {
				s, c = int(dst), writes[dst]+2 // the move carries the written line into the gap
			}
			if (broken[dst] || writes[dst]+1 < endurance[dst]) && (broken[s] || c < endurance[s]) {
				perm[moved], occupant[dst], occupant[src], d.gap = dst, moved, -1, src
				d.sinceMove = 0
				d.gapCarries++
				writes[dst]++
				writes[s]++
				d.mu.Unlock()
				counted++
				continue
			}
		}
		if d.clock != nil {
			d.clock.Charge(stats.EvPCMWrite, counted)
		}
		d.mu.Unlock()
		t.SetIndex(j)
		return l
	}
}
