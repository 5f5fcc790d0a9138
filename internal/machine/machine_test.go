package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// pmdSpec is a write-through machine sized for a short pmd run over a
// device of the given endurance.
func pmdSpec(endurance uint64) (*workload.Profile, Spec) {
	p := workload.ByName("pmd")
	heapBytes := 2 * p.MinHeap()
	return p, Spec{
		Kernel: kernel.Config{PCMPages: 4 * heapBytes / failmap.PageSize},
		Device: &pcm.Config{Endurance: endurance, Variation: 0.25, TrackData: true, Seed: 1},
		VM: vm.Config{
			HeapBytes:    heapBytes,
			Collector:    vm.StickyImmix,
			FailureAware: true,
			WriteThrough: true,
		},
	}
}

// TestLateHookSeesEveryLayer: the device, the kernel and the runtime are
// built holding the machine's trampoline, so a hook installed after Boot —
// the only time an injector can exist — still hears all three.
func TestLateHookSeesEveryLayer(t *testing.T) {
	p, spec := pmdSpec(48)
	spec.Probe = true
	m, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var seen [probe.NumPoints]int
	m.SetProbe(func(pt probe.Point, _ uint64) { seen[pt]++ })
	_ = p.RunMutators(m.VM, 150, 1) // may end in OOM on so fragile a device; the points fire first
	for _, pt := range []probe.Point{
		probe.PCMFailure, // device
		probe.OSUpcall,   // kernel
		probe.AllocBump,  // runtime
		probe.GCBegin,    // collector, through the runtime
	} {
		if seen[pt] == 0 {
			t.Errorf("%v never reached the hook (seen %v)", pt, seen)
		}
	}
}

// TestNewbornRootFollowsProbeAndWriteThrough: Boot passes a nil probe to an
// unprobed machine, so vm.New's own rule — the newborn root exists only on
// instrumented or write-through runtimes — decides, and the
// statistical-wear experiments keep their root order.
func TestNewbornRootFollowsProbeAndWriteThrough(t *testing.T) {
	for _, tc := range []struct {
		name           string
		probe, through bool
		roots          int
	}{
		{"plain", false, false, 0},
		{"probed", true, false, 1},
		{"write-through", false, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, spec := pmdSpec(1 << 20)
			spec.Probe, spec.VM.WriteThrough = tc.probe, tc.through
			m, err := Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := m.VM.Roots().Len(); got != tc.roots {
				t.Errorf("%d roots after boot, want %d", got, tc.roots)
			}
		})
	}
}

func TestImageThatDoesNotRestore(t *testing.T) {
	_, spec := pmdSpec(1 << 20)
	spec.Image = &pcm.DeviceImage{Size: failmap.PageSize + 1}
	m, err := Boot(spec)
	if m != nil || err == nil {
		t.Fatalf("Boot = %v, %v; want no machine and an error", m, err)
	}
	if cause := errors.Unwrap(err); cause == nil || !strings.HasPrefix(cause.Error(), "pcm: image size") {
		t.Errorf("error %q does not wrap the restore failure", err)
	}
}

// TestWornOutImageKeepsRecoveryStats: a device with every line failed
// restores, recovers into ErrDeviceWornOut, and Boot stops there — what
// recovery found is on the machine, and no runtime was built over it.
func TestWornOutImageKeepsRecoveryStats(t *testing.T) {
	_, spec := pmdSpec(1 << 20)
	dev := pcm.NewDevice(pcm.Config{Size: spec.Kernel.PCMPages * failmap.PageSize, TrackData: true}, nil)
	for l := 0; l < dev.Lines(); l++ {
		dev.ForceFail(l, nil)
		dev.Drain()
	}
	spec.Image, spec.MinFrames = dev.Snapshot(), 1
	m, err := Boot(spec)
	if !errors.Is(err, kernel.ErrDeviceWornOut) {
		t.Fatalf("Boot error = %v, want ErrDeviceWornOut", err)
	}
	if m == nil || m.Recovery == nil || m.Recovery.Rediscovered != dev.Lines() {
		t.Fatalf("recovery stats lost: %+v", m)
	}
	if m.VM != nil {
		t.Error("a runtime was booted over a worn-out device")
	}
	m.Close()
}

// TestQuiescentSnapshotReboots: the image of an idle fresh machine has no
// torn lines, and the machine booted from it runs a benchmark through.
func TestQuiescentSnapshotReboots(t *testing.T) {
	p, spec := pmdSpec(1 << 20)
	first, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Image, spec.MinFrames = first.Device.Snapshot(), spec.VM.HeapBytes/failmap.PageSize
	first.Close()

	m, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Recovery == nil || m.Recovery.Orphans != 0 {
		t.Errorf("recovery of a quiescent image: %+v, want 0 orphans", m.Recovery)
	}
	if err := p.RunMutators(m.VM, 100, 1); err != nil {
		t.Errorf("pmd on the rebooted machine: %v", err)
	}
	m.Close()
	m.Close()
}

// storeThrough boots spec on the threaded engine and has two real-goroutine
// mutators store blobs through to the device; meanwhile runs on the calling
// goroutine until they are done, and once more on the quiet device. It
// returns the machine and the number of stores made.
func storeThrough(t *testing.T, spec Spec, meanwhile func(*Machine)) (*Machine, int) {
	t.Helper()
	spec.VM.Threaded = true
	m, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	blob := m.VM.RegisterType(&heap.Type{Name: "blob", Kind: heap.KindScalarArray, ElemSize: 1})
	const mutators, blobs, blobBytes = 2, 120, 256
	done := make(chan error, 1)
	go func() {
		done <- m.VM.RunMutators(mutators, func(mu *vm.Mutator, yield func()) error {
			for i := 0; i < blobs; i++ {
				a, err := mu.NewArray(blob, blobBytes)
				if err != nil {
					return err
				}
				for j := 0; j < blobBytes; j++ {
					mu.SetArrayByte(a, j, byte(i+j))
				}
				yield()
			}
			return nil
		})
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("mutators: %v", err)
			}
			running = false
		default:
		}
		meanwhile(m)
	}
	return m, mutators * blobs * blobBytes
}

// TestThreadedBootEquipsDevice is the guard on the threaded engine's
// SetConcurrent call: two real-goroutine mutators store through to the
// device while this goroutine snapshots it and sums its wear, which nothing
// but the device's own lock orders (the mutators' stores are serialised
// among themselves by the runtime's write-through lock, and that is all).
// Under -race it fails when a threaded runtime boots on a device it did not
// equip; without the detector it still holds each sum to the image taken
// before it.
func TestThreadedBootEquipsDevice(t *testing.T) {
	_, spec := pmdSpec(1 << 20)
	m, stores := storeThrough(t, spec, func(m *Machine) {
		var before uint64
		for _, w := range m.Device.Snapshot().Writes {
			before += w
		}
		if after := m.Device.TotalWrites(); after < before {
			t.Fatalf("TotalWrites() = %d after an image that already held %d", after, before)
		}
	})
	if got := m.Device.TotalWrites(); got < uint64(stores) {
		t.Fatalf("%d device writes for %d stores: the stores did not write through", got, stores)
	}
}

// TestThreadedPolicyRotatesUnderStores runs the reader inside the OS: a
// rotate remap policy ranks pages by Device.PageWrites every 2048 stores, on
// whichever mutator's store came due, while the other mutator keeps storing
// through. It is not a guard on SetConcurrent — the policy reads on the
// storing mutator, inside the runtime's write-through lock, and the test
// stays green under -race with the device unequipped — but it is the only
// test of a non-stock policy on the threaded engine (run it under -race: the
// policy's own counters are the kernel lock's to order).
func TestThreadedPolicyRotatesUnderStores(t *testing.T) {
	_, spec := pmdSpec(1 << 20)
	spec.Kernel.Placement, spec.Kernel.Remap = "rotate", "rotate"
	m, _ := storeThrough(t, spec, func(*Machine) { runtime.Gosched() })
	if m.Kernel.PolicyRemaps() == 0 {
		t.Fatal("no rotation happened: the policy never read the device's wear")
	}
}
