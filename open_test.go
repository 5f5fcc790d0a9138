package wearmem

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"wearmem/internal/kv"
)

// Open with no options boots a working default stack: pristine 16 MB
// pool, 2 MB failure-aware Sticky Immix heap, shared clock.
func TestOpenDefaults(t *testing.T) {
	rt, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Device != nil || rt.Inject != nil {
		t.Fatal("default stack has a device or injected failures")
	}
	node := rt.VM.RegisterType(&Type{Name: "node", Kind: KindFixed, Size: 16})
	for i := 0; i < 1000; i++ {
		rt.VM.MustNew(node)
	}
	if rt.Clock.Now() == 0 {
		t.Fatal("allocation charged no simulated time")
	}
}

// The quickstart assembly: injected clustered failures, compensated heap,
// allocation and collection around the holes.
func TestOpenWithFailures(t *testing.T) {
	rt := MustOpen(
		WithPoolPages(2048),
		WithHeapBytes(1<<20),
		WithFailureRate(0.25),
		WithClusterPages(2),
		WithSeed(42),
	)
	if rt.Inject == nil || rt.Inject.Rate() == 0 {
		t.Fatal("failure map not injected")
	}
	if rt.Inject.PerfectPages() == 0 {
		t.Fatal("clustering produced no perfect pages at 25%")
	}
	node := rt.VM.RegisterType(&Type{Name: "node", Kind: KindFixed, Size: 24, RefOffsets: []int{8}})
	var head Addr
	rt.VM.AddRoot(&head)
	for i := 0; i < 5000; i++ {
		n := rt.VM.MustNew(node)
		rt.VM.WriteRef(n, 8, head)
		head = n
	}
	rt.VM.Collect(true)
	count := 0
	for a := head; a != 0; a = rt.VM.ReadRef(a, 8) {
		count++
	}
	if count != 5000 {
		t.Fatalf("list has %d nodes after collection, want 5000", count)
	}
}

// Invalid configurations are reported as errors, not panics.
func TestOpenErrors(t *testing.T) {
	cases := map[string][]Option{
		"bad engine":            {WithEngine("warp")},
		"zero pool":             {WithPoolPages(0)},
		"zero heap":             {WithHeapBytes(0)},
		"heap exceeds pool":     {WithPoolPages(1), WithHeapBytes(1 << 20)},
		"bad rate":              {WithFailureRate(1.5)},
		"zero mutators":         {WithMutators(0)},
		"writethrough sans dev": {WithWriteThrough()},
		"tuning sans dev":       {WithDeviceTuning(func(*DeviceConfig) {})},
		"negative budget":       {WithPauseBudget(-1)},
		"budget sans S-IX":      {WithCollector(MarkSweep), WithPauseBudget(10000)},
		"bad placement":         {WithPlacementPolicy("tetris")},
		"bad remap":             {WithRemapPolicy("tetris")},
	}
	for name, opts := range cases {
		if _, err := Open(opts...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Policy options select the kernel's placement/remap pair, and a
// non-paper remap policy actually migrates hot frames under write wear.
func TestOpenPolicyOptions(t *testing.T) {
	rt := MustOpen(
		WithPoolPages(512),
		WithHeapBytes(64<<10),
		WithWearingDevice(1<<30, 0),
		WithWriteThrough(),
		WithPlacementPolicy("rotate"),
		WithRemapPolicy("rotate"),
		WithSeed(7),
	)
	if p, r := rt.Kernel.PolicyNames(); p != "rotate" || r != "rotate" {
		t.Fatalf("policy names = %q/%q, want rotate/rotate", p, r)
	}
	node := rt.VM.RegisterType(&Type{Name: "node", Kind: KindFixed, Size: 64})
	a := rt.VM.MustNew(node)
	for i := 0; i < 5000; i++ {
		rt.VM.WriteWord(a, 0, uint64(i))
	}
	if rt.Kernel.PolicyRemaps() == 0 {
		t.Fatal("rotate remap policy never rotated a worn frame")
	}
}

// A wearing device backs the pool and wears out under writes.
func TestOpenWearingDevice(t *testing.T) {
	rt := MustOpen(
		WithPoolPages(512),
		WithHeapBytes(256<<10),
		WithWearingDevice(2, 0),
		WithSeed(7),
	)
	if rt.Device == nil {
		t.Fatal("no device")
	}
	buf := make([]byte, LineSize)
	rt.Device.Write(3, buf)
	rt.Device.Write(3, buf) // endurance 2: second write fails the line
	if rt.Device.FailedLines() != 1 {
		t.Fatalf("failed lines = %d", rt.Device.FailedLines())
	}
}

// The persistence loop through the facade: wear a device, snapshot it,
// round-trip the image through its wire encoding, reopen the stack over it
// and let recovery rebuild the failure table before the runtime boots.
func TestOpenPersistentImage(t *testing.T) {
	rt := MustOpen(
		WithPoolPages(512),
		WithHeapBytes(256<<10),
		WithWearingDevice(2, 0),
		WithSeed(7),
	)
	buf := make([]byte, LineSize)
	for l := 3; l < 8; l++ {
		rt.Device.Write(l, buf)
		rt.Device.Write(l, buf) // endurance 2: second write fails the line
	}
	img, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	var wire bytes.Buffer
	if err := EncodeImage(&wire, img); err != nil {
		t.Fatal(err)
	}
	img2, err := DecodeImage(&wire)
	if err != nil {
		t.Fatal(err)
	}

	rt2, err := Open(
		WithHeapBytes(256<<10),
		WithPersistentImage(img2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Recovery == nil {
		t.Fatal("no recovery statistics on a restored runtime")
	}
	if rt2.Recovery.Rediscovered != 5 {
		t.Fatalf("recovery rediscovered %d failed lines, want 5", rt2.Recovery.Rediscovered)
	}
	if rep := VerifyRecovered(RecoveredTarget{
		Pool: rt2.Kernel, Scan: rt2.Device, Clusters: rt2.Device,
	}); !rep.Ok() {
		t.Fatalf("recovered state failed verification: %v", rep.Err())
	}
	node := rt2.VM.RegisterType(&Type{Name: "node", Kind: KindFixed, Size: 16})
	for i := 0; i < 1000; i++ {
		rt2.VM.MustNew(node)
	}
	rt2.VM.Collect(true)

	// Conflicting and invalid persistence configurations are errors.
	if _, err := Open(WithPersistentImage(img2), WithWearingDevice(2, 0)); err == nil {
		t.Error("image + wearing device accepted")
	}
	if _, err := Open(WithPersistentImage(img2), WithInject(NewFailureMap(512*PageSize))); err == nil {
		t.Error("image + injected map accepted")
	}
	if _, err := Open(WithPersistentImage(img2), WithDeviceTuning(func(*DeviceConfig) {})); err == nil {
		t.Error("image + device tuning accepted")
	}
	if _, err := MustOpen().Snapshot(); err == nil {
		t.Error("snapshot of a deviceless runtime accepted")
	}
}

// A heap the recovered device cannot hold is the typed graceful terminal,
// reported through errors.Is, never a panic.
func TestOpenPersistentImageWornOut(t *testing.T) {
	rt := MustOpen(WithPoolPages(64), WithHeapBytes(64<<10), WithWearingDevice(2, 0))
	buf := make([]byte, LineSize)
	for l := 0; l < rt.Device.Lines(); l++ {
		rt.Device.Write(l, buf)
		rt.Device.Write(l, buf)
	}
	img, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(WithHeapBytes(64<<10), WithPersistentImage(img))
	if !errors.Is(err, ErrDeviceWornOut) {
		t.Fatalf("opening over a worn-out image: %v, want ErrDeviceWornOut", err)
	}
}

// WithLatencyCapture + RunBenchmark on a scenario benchmark yields a
// quantile report; on the baton engine it is deterministic.
func TestOpenLatencyCapture(t *testing.T) {
	name := kv.MustRegister(kv.Config{})
	run := func() *LatencyReport {
		rt := MustOpen(
			WithPoolPages(4096),
			WithHeapBytes(2*BenchmarkByName(name).MinHeap()),
			WithMutators(2),
			WithLatencyCapture(),
		)
		if err := rt.RunBenchmark(BenchmarkByName(name), 40); err != nil {
			t.Fatal(err)
		}
		lr := rt.LatencyReport()
		if lr == nil || lr.Ops == 0 {
			t.Fatal("no latency recorded")
		}
		return lr
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("baton latency reports differ:\n%+v\n%+v", a, b)
	}
	if a.Overall.P50 == 0 || a.Overall.P50 > a.Overall.P99 {
		t.Fatalf("quantiles out of order: %+v", a.Overall)
	}
}

// The threaded engine runs the same benchmark on real goroutines.
func TestOpenThreadedEngine(t *testing.T) {
	name := kv.MustRegister(kv.Config{})
	rt := MustOpen(
		WithPoolPages(4096),
		WithHeapBytes(2*BenchmarkByName(name).MinHeap()),
		WithEngine("threaded"),
		WithMutators(2),
		WithLatencyCapture(),
	)
	if err := rt.RunBenchmark(BenchmarkByName(name), 30); err != nil {
		t.Fatal(err)
	}
	if lr := rt.LatencyReport(); lr == nil || lr.Ops != 30*128 {
		t.Fatalf("latency report: %+v", lr)
	}
}

// Runtime.Device's promise to a threaded runtime's user: while RunBenchmark
// stores through on real goroutines, another goroutine may poll the device,
// TotalWrites included, which only the device's own lock orders against the
// stores. Under -race this fails when the threaded engine boots on a device
// it did not equip.
func TestOpenThreadedDevicePolledWhileRunning(t *testing.T) {
	name := kv.MustRegister(kv.Config{})
	rt := MustOpen(
		WithPoolPages(4096),
		WithHeapBytes(2*BenchmarkByName(name).MinHeap()),
		WithEngine("threaded"),
		WithMutators(2),
		WithWearingDevice(1<<20, 0.25),
		WithWriteThrough(),
	)
	done := make(chan error, 1)
	go func() { done <- rt.RunBenchmark(BenchmarkByName(name), 10) }()
	var last uint64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false // one more look, at the quiet device
		default:
		}
		if rate := rt.Device.FailureRate(); rate != 0 {
			t.Fatalf("failure rate %v on a device that cannot wear out in this run", rate)
		}
		now := rt.Device.TotalWrites()
		if now < last {
			t.Fatalf("TotalWrites() went from %d to %d", last, now)
		}
		last = now
		runtime.Gosched()
	}
	if last == 0 {
		t.Fatal("the benchmark's stores did not write through")
	}
}

// WithPauseBudget on the baton engine runs incremental cycles with every
// pause under the budget's reach, deterministically; on the threaded
// engine it runs concurrent cycles.
func TestOpenPauseBudget(t *testing.T) {
	name := kv.MustRegister(kv.Config{})
	run := func() (*LatencyReport, int) {
		rt := MustOpen(
			WithPoolPages(4096),
			WithHeapBytes(2*BenchmarkByName(name).MinHeap()),
			WithMutators(2),
			WithLatencyCapture(),
			WithPauseBudget(10000),
		)
		if err := rt.RunBenchmark(BenchmarkByName(name), 40); err != nil {
			t.Fatal(err)
		}
		return rt.LatencyReport(), rt.VM.GCStats().IncrementalCycles
	}
	a, an := run()
	b, bn := run()
	if *a != *b || an != bn {
		t.Fatalf("baton bounded-pause runs differ: %+v/%d vs %+v/%d", a, an, b, bn)
	}
	if an == 0 {
		t.Fatal("no incremental cycles ran under WithPauseBudget")
	}

	rt := MustOpen(
		WithPoolPages(4096),
		WithHeapBytes(2*BenchmarkByName(name).MinHeap()),
		WithEngine("threaded"),
		WithMutators(2),
		WithPauseBudget(10000),
	)
	if err := rt.RunBenchmark(BenchmarkByName(name), 150); err != nil {
		t.Fatal(err)
	}
	if rt.VM.GCStats().ConcurrentCycles == 0 {
		t.Fatal("no concurrent cycles ran under a threaded WithPauseBudget")
	}
}

// Manual mutator handles: stable across calls, correct count, and
// incompatible with RunBenchmark (which attaches its own contexts).
func TestOpenManualMutators(t *testing.T) {
	rt := MustOpen(WithMutators(3))
	muts := rt.Mutators()
	if len(muts) != 3 {
		t.Fatalf("%d mutators, want 3", len(muts))
	}
	if again := rt.Mutators(); &again[0] != &muts[0] {
		t.Fatal("Mutators not idempotent")
	}
	if err := rt.RunBenchmark(BenchmarkByName("pmd"), 1); err == nil {
		t.Fatal("RunBenchmark allowed after manual Mutators")
	}
}
