package harness

import (
	"testing"

	"wearmem/internal/pcm"
)

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
