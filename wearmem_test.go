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
