package chaos

import (
	"bytes"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// FuzzRecoverImage: bytes → DecodeImage → NewDeviceFromImage → a kernel
// over the restored module → Kernel.Recover ends in an error or a recovered
// kernel, never a panic. The corpus is the images power cuts take in
// torture-scale crash campaigns: mid-allocation, mid-collection, with a
// failure parked in the buffer and inside the OS's failure up-call, each
// after its schedule's injections.
func FuzzRecoverImage(f *testing.F) {
	cfg := CrashConfigs()[0]
	for _, tc := range []struct {
		seed int64
		cut  Event
	}{
		{1, Event{Point: probe.AllocBump, Nth: 600}},
		{2, Event{Point: probe.GCSweepBlock, Nth: 20}},
		{3, Event{Point: probe.GCEnd, Nth: 4}},
		{1, Event{Point: probe.PCMFailure, Nth: 1}}, // a failure parked, an orphan at the cut
		{3, Event{Point: probe.OSUpcall, Nth: 1}},   // after a buffer storm failed 57 lines
	} {
		camp, cut := NewCampaign(tc.seed, 3), tc.cut
		cut.Act = ActPowerCut
		camp.Events = append(camp.Events, cut)
		_, in := runCampaignInner(cfg, camp, quickOpts(), nil, nil)
		if in == nil || in.CutImage == nil {
			f.Fatalf("the cut %v never fired", cut)
		}
		var enc bytes.Buffer
		if err := pcm.EncodeImage(&enc, in.CutImage); err != nil {
			f.Fatal(err)
		}
		f.Add(enc.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := pcm.DecodeImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		clock := stats.NewClock(stats.DefaultCosts())
		dev, err := pcm.NewDeviceFromImage(img, clock, nil)
		if err != nil {
			return
		}
		k := kernel.New(kernel.Config{PCMPages: dev.Size() / failmap.PageSize, Device: dev, Clock: clock, RemapUnaware: true})
		minFrames := 2 * tortureHeapBytes / failmap.PageSize
		st, err := k.Recover(kernel.RecoverOptions{MinFrames: minFrames})
		if err == nil && (st.UsableFrames < minFrames || dev.BufferLen() != 0) {
			t.Fatalf("recovered with %d usable frames (want %d) and %d entries still parked",
				st.UsableFrames, minFrames, dev.BufferLen())
		}
	})
}
