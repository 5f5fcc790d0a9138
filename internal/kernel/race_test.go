package kernel

import (
	"sync"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
)

// lockedHandler is a minimal failure-aware runtime: it synchronizes its own
// state, as the contract requires of handlers in multi-mutator runs.
type lockedHandler struct {
	mu    sync.Mutex
	fails int
}

func (h *lockedHandler) HandleFailures(fs []LineFailure) {
	h.mu.Lock()
	h.fails += len(fs)
	h.mu.Unlock()
}

// TestConcurrentFailureInterrupts hammers the kernel and the device from
// genuinely concurrent goroutines — writers wearing lines out, a
// fault injector, accessor readers, and a mapper — with nil clocks (the
// clock stays baton-owned and is excluded from the free-threaded
// contract). Run under -race this checks the explicit locking of the
// failure table, the failure buffer, and the up-call path: a failure
// interrupt must be safe to land on any mutator's write.
func TestConcurrentFailureInterrupts(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{
		Size:      64 * failmap.PageSize,
		Endurance: 8,
		Variation: 0.3,
		TrackData: true,
		Seed:      1,
	}, nil)
	dev.SetConcurrent() // a bare device under goroutines; no threaded VM equips it
	k := New(Config{PCMPages: 64, Device: dev})
	h := &lockedHandler{}
	k.RegisterFailureHandler(h)

	r, err := k.MmapRelaxed(16)
	if err != nil {
		t.Fatalf("MmapRelaxed: %v", err)
	}

	var wg sync.WaitGroup
	lines := r.Pages * failmap.LinesPerPage
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, failmap.LineSize)
			for i := 0; i < 400; i++ {
				vaddr := r.Base + uint64((i*4+w)%lines)*failmap.LineSize
				_ = k.WriteLine(vaddr, buf) // stall errors are fine here
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for l := 0; l < 128; l++ {
			dev.ForceFail(l%dev.Lines(), nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = k.FreePCMPages()
			_ = k.Debt()
			_ = k.FrameFailedLines(i % 64)
			_ = dev.BufferLen()
			_ = dev.FailedLines()
			_, _, _ = dev.BufferAccounting()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if reg, err := k.MmapRelaxed(1); err == nil {
				k.Release(reg)
			}
		}
	}()
	wg.Wait()

	k.ServiceDevice()
	if dev.BufferLen() != 0 {
		t.Fatalf("failure buffer not drained: %d entries left", dev.BufferLen())
	}
	pushed, invalidated, drained := dev.BufferAccounting()
	if pushed != invalidated+drained {
		t.Fatalf("buffer accounting broken: pushed=%d invalidated=%d drained=%d",
			pushed, invalidated, drained)
	}
	if h.fails == 0 {
		t.Fatal("no up-calls delivered despite forced failures on mapped frames")
	}
}
