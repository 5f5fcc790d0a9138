package pcm

import "math/rand"

// SkewedLines fills dst with the next len(dst) module lines of the wear
// studies' write traffic: 90% of writes hit the hot quarter of the module,
// the rest land anywhere. It is the one definition of that traffic (§7.2
// ablation, examples/wearout, wearsim's hammer and population commands),
// and it draws exactly two or three values from rng per line, so filling in
// blocks consumes the stream precisely as a per-write loop would.
func (d *Device) SkewedLines(rng *rand.Rand, dst []int) {
	hot := d.lines / 4
	for i := range dst {
		l := rng.Intn(hot)
		if rng.Intn(10) == 0 {
			l = rng.Intn(d.lines)
		}
		dst[i] = l
	}
}
