package chaos

import (
	"bytes"
	"slices"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

// FuzzRecoverImage: bytes → DecodeImage → NewDeviceFromImage → a kernel
// over the restored module, running one of the registered frame policies →
// Kernel.Recover ends in an error or a recovered kernel, never a panic. The
// corpus is the images power cuts take in torture-scale crash campaigns:
// mid-allocation, mid-collection, with a failure parked in the buffer and
// inside the OS's failure up-call, each after its schedule's injections;
// and at the second remap under each rival policy (the point fires before
// a remap persists its record), whose image carries the record of the
// first for a kernel of that policy to restore.
func FuzzRecoverImage(f *testing.F) {
	policies := kernel.Policies()
	for _, tc := range []struct {
		seed   int64
		cut    Event
		policy string
	}{
		{1, Event{Point: probe.AllocBump, Nth: 600}, "paper"},
		{2, Event{Point: probe.GCSweepBlock, Nth: 20}, "paper"},
		{3, Event{Point: probe.GCEnd, Nth: 4}, "paper"},
		{1, Event{Point: probe.PCMFailure, Nth: 1}, "paper"}, // a failure parked, an orphan at the cut
		{3, Event{Point: probe.OSUpcall, Nth: 1}, "paper"},   // after a buffer storm failed 57 lines
		{1, Event{Point: probe.PolicyRemap, Nth: 2}, "rotate"},
		{1, Event{Point: probe.PolicyRemap, Nth: 2}, "decoder"},
		{1, Event{Point: probe.PolicyRemap, Nth: 2}, "migrate"},
	} {
		cfg := CrashConfigs()[0]
		cfg.Policy = tc.policy
		camp, cut := NewCampaign(tc.seed, 3), tc.cut
		cut.Act = ActPowerCut
		camp.Events = append(camp.Events, cut)
		_, in := runCampaignInner(cfg, camp, quickOpts(), nil, nil)
		if in == nil || in.cuts[0].image == nil {
			f.Fatalf("%s: the cut %v never fired", cfg.Name(), cut)
		}
		var enc bytes.Buffer
		if err := pcm.EncodeImage(&enc, in.cuts[0].image); err != nil {
			f.Fatal(err)
		}
		policy := uint8(slices.Index(policies, tc.policy))
		if st, err := recoverImage(f, enc.Bytes(), policy); tc.policy != "paper" && (err != nil || !st.PolicyRestored) {
			f.Fatalf("%s: recovering the image at %v restored no policy record (err %v)", cfg.Name(), cut, err)
		}
		f.Add(enc.Bytes(), policy)
	}
	f.Fuzz(func(t *testing.T, data []byte, policy uint8) { recoverImage(t, data, policy) })
}

// recoverImage is FuzzRecoverImage's run on one input: the image data
// encodes, restored under a kernel running policy (an index into
// kernel.Policies, wrapped), then recovered. It fails t if recovery
// succeeds short of the torture heap's frames or with entries still parked.
func recoverImage(t testing.TB, data []byte, policy uint8) (kernel.RecoverStats, error) {
	img, err := pcm.DecodeImage(bytes.NewReader(data))
	if err != nil {
		return kernel.RecoverStats{}, err
	}
	clock := stats.NewClock(stats.DefaultCosts())
	dev, err := pcm.NewDeviceFromImage(img, clock, nil)
	if err != nil {
		return kernel.RecoverStats{}, err
	}
	policies := kernel.Policies()
	k := kernel.New(kernel.Config{PCMPages: dev.Size() / failmap.PageSize, Device: dev, Clock: clock,
		Policy: policies[int(policy)%len(policies)]})
	minFrames := 2 * tortureHeapBytes / failmap.PageSize
	st, err := k.Recover(kernel.RecoverOptions{MinFrames: minFrames})
	if err == nil && (st.UsableFrames < minFrames || dev.BufferLen() != 0) {
		t.Fatalf("recovered with %d usable frames (want %d) and %d entries still parked",
			st.UsableFrames, minFrames, dev.BufferLen())
	}
	return st, err
}
