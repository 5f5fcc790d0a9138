package vm

import (
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// TestVMBackpressureDrainResumes is the end-to-end ErrStalled story: the
// failure buffer is driven to its watermark mid-workload, and the
// write-through path must drain it, retry, and carry on without losing a
// byte of mutator state or degrading the runtime.
func TestVMBackpressureDrainResumes(t *testing.T) {
	retries := 0
	hook := func(p probe.Point, addr uint64) {
		if p == probe.PCMStallRetry {
			retries++
		}
	}
	// A write-through VM over a live PCM device, so mutator stores reach the
	// failure buffer. The pool is four heaps, so the top of the module stays
	// unmapped scratch for storm injection.
	const heapBytes = 1 << 20
	clock := stats.NewClock(stats.DefaultCosts())
	poolPages := 4 * heapBytes / failmap.PageSize
	dev := pcm.NewDevice(pcm.Config{
		Size: poolPages * failmap.PageSize, BufferCap: 24, BufferReserve: 4, TrackData: true,
	}, clock)
	tv := newTestVM(t, Config{
		HeapBytes: heapBytes, Collector: StickyImmix, FailureAware: true,
		Clock: clock, Probe: hook, WriteThrough: true, StrictRemap: true,
	}, kernel.Config{PCMPages: poolPages, Device: dev, Probe: hook})
	kern := tv.Kernel()

	head := tv.buildList(t, 200)
	tv.AddRoot(&head)

	// Storm: retire unmapped top-of-module lines with interrupt delivery
	// detached so nothing drains the buffer, until the device stalls.
	dev.OnFailure(nil)
	dev.OnBufferFull(nil)
	for l := dev.Lines() - 1; !dev.Stalled(); l-- {
		if !dev.ForceFail(l, nil) {
			continue
		}
	}
	dev.OnFailure(func() { kern.ServiceDevice() })
	dev.OnBufferFull(func() { kern.ServiceDevice() })

	// The mutator keeps writing through the stalled device: the first
	// write-back must hit ErrStalled and recover via drain-and-retry.
	for i := 0; i < 5000; i++ {
		a, err := tv.NewArray(tv.blob, 64)
		if err != nil {
			t.Fatalf("allocation %d under backpressure: %v", i, err)
		}
		tv.SetArrayByte(a, 0, byte(i))
	}

	if retries == 0 {
		t.Fatal("stall never reached the drain-and-retry path")
	}
	if dev.Stalled() {
		t.Fatal("device still stalled after workload")
	}
	if err := tv.Degraded(); err != nil {
		t.Fatalf("runtime degraded by recoverable stall: %v", err)
	}
	tv.checkList(t, head, 200)

	pushed, invalidated, drained := dev.BufferAccounting()
	if int(pushed-invalidated-drained) != dev.BufferLen() {
		t.Fatalf("buffer accounting off: pushed=%d invalidated=%d drained=%d live=%d",
			pushed, invalidated, drained, dev.BufferLen())
	}
}
