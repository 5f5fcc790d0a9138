package kernel

import (
	"errors"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/stats"
)

// TestRecoverDrainsOrphansAndRescans: a restored device carrying orphaned
// failure-buffer residue and undrained broken lines comes back with an
// empty buffer and a table that matches ground truth.
func TestRecoverDrainsOrphansAndRescans(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 8 * failmap.PageSize, TrackData: true, Seed: 1}, nil)
	for _, l := range []int{5, 100, 300} {
		dev.ForceFail(l, nil) // parked, never serviced: orphans at the cut
	}
	clock := stats.NewClock(stats.DefaultCosts())
	dev2, err := pcm.NewDeviceFromImage(dev.Snapshot(), clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{PCMPages: 8, Device: dev2, Clock: clock})
	st, err := k.Recover(RecoverOptions{MinFrames: 4})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Orphans != 3 {
		t.Fatalf("drained %d orphans, want 3", st.Orphans)
	}
	if dev2.BufferLen() != 0 {
		t.Fatalf("%d entries still parked after recovery", dev2.BufferLen())
	}
	r, _ := k.MmapRelaxed(8)
	fm := k.MapFailures(r)
	for _, l := range []int{5, 100, 300} {
		if !fm.LineFailed(l) {
			t.Fatalf("orphaned line %d missing from the recovered table", l)
		}
	}
	if st.Cycles == 0 {
		t.Fatal("recovery charged no simulated time")
	}
	if st.UsableFrames != 8 {
		t.Fatalf("usable frames = %d, want 8", st.UsableFrames)
	}
	if st.Scrubbed == 0 {
		t.Fatal("scrub refreshed no lines despite pages carrying failures")
	}
}

// TestRecoverWornOut: too few usable frames is the typed graceful terminal
// state, not a panic.
func TestRecoverWornOut(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 4 * failmap.PageSize, TrackData: true, Seed: 1}, nil)
	// Kill every line of three of the four frames.
	for l := 0; l < 3*failmap.LinesPerPage; l++ {
		dev.ForceFail(l, nil)
		dev.Drain()
	}
	k := New(Config{PCMPages: 4, Device: dev})
	_, err := k.Recover(RecoverOptions{MinFrames: 2})
	if !errors.Is(err, ErrDeviceWornOut) {
		t.Fatalf("recover on a dead device: err = %v, want ErrDeviceWornOut", err)
	}
	// With an admission bar the surviving frame clears, recovery succeeds.
	k2 := New(Config{PCMPages: 4, Device: dev})
	st, err := k2.Recover(RecoverOptions{MinFrames: 1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.UsableFrames != 1 {
		t.Fatalf("usable frames = %d, want 1", st.UsableFrames)
	}
}

// TestRecoverScrubWearsDevice: scrub writes are real writes — on a device
// one write from death they fail lines during recovery itself, and those
// failures land in the recovered table rather than escaping.
func TestRecoverScrubWearsDevice(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{
		Size: 4 * failmap.PageSize, Endurance: 1, TrackData: true, Seed: 7,
	}, nil)
	// One organic failure so frame 0 is scrubbed (endurance 1: the very
	// first write exhausts a line).
	buf := make([]byte, failmap.LineSize)
	dev.Write(0, buf)
	dev.Drain()
	k := New(Config{PCMPages: 4, Device: dev})
	st, err := k.Recover(RecoverOptions{})
	if err != nil && !errors.Is(err, ErrDeviceWornOut) {
		t.Fatalf("recover: %v", err)
	}
	if err == nil && st.ScrubFailures == 0 {
		t.Fatal("endurance-1 device survived its scrub without a single fresh failure")
	}
}

// TestRecoverRequiresQuiescence: recovery after mappings exist is refused.
func TestRecoverRequiresQuiescence(t *testing.T) {
	dev := pcm.NewDevice(pcm.Config{Size: 4 * failmap.PageSize, TrackData: true, Seed: 1}, nil)
	k := New(Config{PCMPages: 4, Device: dev})
	k.MmapRelaxed(1)
	if _, err := k.Recover(RecoverOptions{}); err == nil {
		t.Fatal("recover with live mappings accepted")
	}
}
