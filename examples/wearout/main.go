// Wear leveling considered harmful (§7.2): the same write traffic is
// applied to two PCM modules — one with start-gap wear leveling, one
// without — until each reaches the same failure rate. The resulting
// failure maps are then handed to a failure-aware runtime: uniform wear
// fragments memory and costs more, concentrated wear leaves contiguous
// working space.
package main

import (
	"fmt"

	"wearmem"
)

func wearOut(policy wearmem.WearLeveling, target float64) (*wearmem.FailureMap, uint64) {
	const pages = 2048 // an 8 MB module
	rt := wearmem.MustOpen(
		wearmem.WithPoolPages(pages),
		wearmem.WithWearingDevice(600, 0.15),
		wearmem.WithSeed(11),
		wearmem.WithDeviceTuning(func(c *wearmem.DeviceConfig) {
			c.WearLeveling = policy
			c.GapInterval = 1
			c.TrackData = false // pure wear study: line contents don't matter
		}),
	)
	dev := rt.Device
	// 90% of traffic hits a quarter of the module; the OS handles each
	// failure's interrupt before the next write.
	dev.WearThrough(13, []float64{target}, func(int) {})
	return dev.FailMap(), dev.TotalWrites() - dev.GapCarries()
}

func main() {
	const target = 0.25
	fmt.Printf("wearing two 8 MB modules with identical skewed traffic to %.0f%% failed lines\n\n", target*100)

	r := wearmem.NewRunner()
	r.QuickDivisor = 4
	for _, p := range []struct {
		name   string
		policy wearmem.WearLeveling
	}{
		{"start-gap (uniform wear)", wearmem.StartGap},
		{"no leveling (concentrated)", wearmem.NoWearLeveling},
	} {
		m, writes := wearOut(p.policy, target)
		n := r.Normalized(
			wearmem.RunConfig{Bench: "pmd", HeapMult: 2, Collector: wearmem.StickyImmix,
				FailureAware: true, FailureRate: target,
				Inject: m, InjectName: p.name, Seed: 1},
			wearmem.RunConfig{Bench: "pmd", HeapMult: 2, Collector: wearmem.StickyImmix, Seed: 1},
		)
		overhead := "DNF (memory unusable)"
		if n > 0 {
			overhead = fmt.Sprintf("%+.1f%%", (n-1)*100)
		}
		fmt.Printf("%-28s writes-to-target=%9d  free-runs=%5d  longest-run=%5d lines  pmd overhead=%s\n",
			p.name, writes, m.FreeRuns(), m.LongestFreeRun(), overhead)
	}
	fmt.Println("\nuniform wear survives more writes before failing, but once failures arrive")
	fmt.Println("they are everywhere; concentrated wear keeps the surviving memory contiguous.")
}
