package harness

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
)

// wearPerWrite is the wear loop Tab2 ran before WriteRun, kept as the
// reference: a fresh device per target, one Write per drawn line, the rate
// and the buffer polled around every write.
func wearPerWrite(wl pcm.WearLeveling, pages int, target float64, seed int64) *pcm.Device {
	dev := wearDevice(wl, pages, seed)
	rng := rand.New(rand.NewSource(seed + 7))
	hot := dev.Lines() / 4
	buf := make([]byte, failmap.LineSize)
	for dev.FailureRate() < target {
		l := rng.Intn(hot)
		if rng.Intn(10) == 0 {
			l = rng.Intn(dev.Lines())
		}
		dev.Write(l, buf)
		for dev.BufferLen() > 0 {
			dev.Drain()
		}
	}
	return dev
}

// TestWearThroughMatchesPerWriteLoop: one device worn through ascending
// targets in WriteRun blocks is, at each crossing, the device a fresh
// per-write run to that target alone produces — same failure map, same
// write and gap-carry totals — so the chained pass cannot move tab2.
func TestWearThroughMatchesPerWriteLoop(t *testing.T) {
	const pages = 64
	targets := []float64{0.10, 0.25, 0.50}
	for _, wl := range []pcm.WearLeveling{pcm.StartGap, pcm.NoWearLeveling} {
		for _, seed := range []int64{1, 42, 311} {
			dev := wearDevice(wl, pages, seed)
			crossed := 0
			wearThrough(dev, rand.New(rand.NewSource(seed+7)), targets, func(i int) {
				crossed++
				ref := wearPerWrite(wl, pages, targets[i], seed)
				if !dev.FailMap().Equal(ref.FailMap()) {
					t.Errorf("policy %d seed %d target %.2f: failure maps differ", wl, seed, targets[i])
				}
				if dev.TotalWrites() != ref.TotalWrites() || dev.GapCarries() != ref.GapCarries() {
					t.Errorf("policy %d seed %d target %.2f: writes %d carries %d, per-write loop %d / %d",
						wl, seed, targets[i], dev.TotalWrites(), dev.GapCarries(), ref.TotalWrites(), ref.GapCarries())
				}
			})
			if crossed != len(targets) {
				t.Errorf("policy %d seed %d: %d of %d targets reported", wl, seed, crossed, len(targets))
			}
		}
	}
}

// BenchmarkWornFailureMaps is one op = both of Tab2's wear passes at a
// sixteenth of its module size.
func BenchmarkWornFailureMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wl := range []pcm.WearLeveling{pcm.StartGap, pcm.NoWearLeveling} {
			if maps := wornFailureMaps(wl, wornTemplatePages/16, []float64{0.10, 0.25, 0.50}, 42); len(maps) != 3 {
				b.Fatal("missing maps")
			}
		}
	}
}
