package pcm

import (
	"math/rand"

	"wearmem/internal/failmap"
)

// math/rand's Int31n(n), which is Intn(n) for n below 2³¹, in three parts,
// so that the part that divides by a module's line count runs once per block
// and not once per draw: Int31n takes v = Int63()>>32, redraws while
// v > 2³¹−1−(2³¹ mod n), and returns v mod n; for a power of two nothing is
// redrawn and v mod n is a mask. The seeded stream and this arithmetic are
// frozen by the Go 1 promise.

// int31nMax is the highest candidate Int31n(n) keeps.
func int31nMax(n uint32) uint32 { return 1<<31 - 1 - (1<<31)%n }

// accept returns Int31n's next candidate not above max, leaving rng where
// Int31n would.
func accept(rng *rand.Rand, max uint32) uint32 {
	for {
		if v := uint32(rng.Int63() >> 32); v <= max {
			return v
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
// ten, rng.Intn(lines) would per line (TestSkewedLinesStream holds it to the
// literal calls), so no recorded wear study moves and filling in blocks
// consumes the stream precisely as a per-write loop would. The two
// thresholds that depend on the module are worked out once per call; a
// draw then costs one Int63 and no division on a module whose page count
// is a power of two.
func (d *Device) SkewedLines(rng *rand.Rand, dst []int) {
	hot, all := uint32(d.lines/4), uint32(d.lines)
	hotMax, allMax := int31nMax(hot), int31nMax(all)
	for i := range dst {
		l := reduce(accept(rng, hotMax), hot)
		if reduce(accept(rng, int31nMax(10)), 10) == 0 {
			l = reduce(accept(rng, allMax), all)
		}
		dst[i] = l
	}
}

// WearThrough drives d with the skewed traffic stream of rng, draining
// every failure as the OS would, and calls reached(i) as the failure rate
// crosses targets[i] (ascending). Line indices are drawn in blocks and fed
// to WriteRun, which returns at every failure, so the rate is tested
// wherever it can have changed; indices drawn past the last crossing are
// never written, and rng is the caller's to discard.
func (d *Device) WearThrough(rng *rand.Rand, targets []float64, reached func(i int)) {
	buf := make([]byte, failmap.LineSize)
	block := make([]int, 512)
	next := block[:0] // drawn, not yet written
	for i, target := range targets {
		for d.FailureRate() < target {
			if len(next) == 0 {
				d.SkewedLines(rng, block)
				next = block
			}
			n, _ := d.WriteRun(next, buf) // never stalls: the buffer is empty on entry
			next = next[n:]
			for d.BufferLen() > 0 {
				d.Drain()
			}
		}
		reached(i)
	}
}
