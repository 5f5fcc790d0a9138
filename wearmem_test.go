package wearmem

import "testing"

func TestPublicRegistries(t *testing.T) {
	if len(Benchmarks()) != 12 {
		t.Fatalf("suite has %d benchmarks", len(Benchmarks()))
	}
	if BenchmarkByName("pmd") == nil || BenchmarkByName("nope") != nil {
		t.Fatal("BenchmarkByName broken")
	}
	if len(Experiments()) != 16 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
	if ExperimentByID("fig9a") == nil {
		t.Fatal("ExperimentByID broken")
	}
}

// The device behind an opened runtime is the raw PCM module wired to the
// OS: writes wear it, and a line's failure record is drained from the
// device's failure buffer into the kernel's failure table.
func TestPublicDevice(t *testing.T) {
	rt := MustOpen(
		WithPoolPages(4),
		WithHeapBytes(4*PageSize),
		WithWearingDevice(2, 0),
	)
	d := rt.Device
	buf := make([]byte, LineSize)
	d.Write(9, buf)
	d.Write(9, buf) // endurance 2: second write fails the line
	if d.FailedLines() != 1 {
		t.Fatalf("failed lines = %d", d.FailedLines())
	}
	if rt.Kernel.FrameFailedLines(0)&(1<<9) == 0 {
		t.Fatal("failure record did not reach the OS failure table")
	}
}

// The wear study examples/wearout prints, which nothing else runs: two 8 MB
// modules worn by the same skewed traffic (seed 13) to 25% failed lines.
// Start-gap survives more writes, and its failures fragment the module
// where no leveling leaves one free run; the numbers are the example's.
func TestWearoutExampleWear(t *testing.T) {
	for _, c := range []struct {
		name          string
		policy        WearLeveling
		writes        uint64
		runs, longest int
	}{
		{"start-gap", StartGap, 27256016, 29, 98237},
		{"no leveling", NoWearLeveling, 36722905, 1, 98304},
	} {
		rt := MustOpen(
			WithPoolPages(2048),
			WithWearingDevice(600, 0.15),
			WithSeed(11),
			WithDeviceTuning(func(dc *DeviceConfig) {
				dc.WearLeveling = c.policy
				dc.GapInterval = 1
				dc.TrackData = false
			}),
		)
		dev := rt.Device
		dev.WearThrough(13, []float64{0.25}, func(int) {})
		m := dev.FailMap()
		if writes := dev.TotalWrites() - dev.GapCarries(); writes != c.writes ||
			m.FreeRuns() != c.runs || m.LongestFreeRun() != c.longest {
			t.Errorf("%s: writes-to-target %d, free runs %d, longest %d; want %d, %d, %d",
				c.name, writes, m.FreeRuns(), m.LongestFreeRun(), c.writes, c.runs, c.longest)
		}
	}
}
