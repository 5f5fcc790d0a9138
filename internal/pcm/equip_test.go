package pcm_test

import (
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/machine"
	"wearmem/internal/pcm"
	"wearmem/internal/vm"
)

// TestEquipFollowsTheEngine boots the same write-through machine on both
// engines, fresh and from an image: only a threaded runtime equips the
// device it boots on, a baton machine's stays single-owner, and a restored
// device starts single-owner whatever the device its image came from was.
// It needs no race detector, so plain `go test` notices a threaded machine
// whose device was never equipped.
func TestEquipFollowsTheEngine(t *testing.T) {
	const heapBytes = 1 << 20
	boot := func(threaded bool, img *pcm.DeviceImage) *machine.Machine {
		t.Helper()
		m, err := machine.Boot(machine.Spec{
			Kernel: kernel.Config{PCMPages: 4 * heapBytes / failmap.PageSize},
			Device: &pcm.Config{Endurance: 1 << 20, TrackData: true, Seed: 1},
			Image:  img,
			VM: vm.Config{
				HeapBytes:    heapBytes,
				Collector:    vm.StickyImmix,
				FailureAware: true,
				WriteThrough: true,
				Threaded:     threaded,
			},
			MinFrames: heapBytes / failmap.PageSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	threaded, baton := boot(true, nil), boot(false, nil)
	if !threaded.Device.Equipped() {
		t.Error("a threaded runtime booted on a device it did not equip")
	}
	if baton.Device.Equipped() {
		t.Error("the baton engine equipped its device: every store pays for a lock nothing contends")
	}
	img := threaded.Device.Snapshot()
	if boot(false, img).Device.Equipped() {
		t.Error("a baton machine restored from a threaded machine's image came up equipped")
	}
	if !boot(true, img).Device.Equipped() {
		t.Error("a threaded runtime booted on a restored device it did not equip")
	}
}
