package chaos

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/kernel"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
)

// TestCrashCampaignBaton: cut power mid-allocation after a worn preamble,
// recover, verify, resume — the whole crash pipeline on the deterministic
// engine.
func TestCrashCampaignBaton(t *testing.T) {
	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true}
	camp := NewCampaign(42, 3)
	camp.Events = append(camp.Events, Event{Point: probe.AllocBump, Nth: 600, Act: ActPowerCut})
	rec := RunCrashCampaign(cfg, camp, quickOpts())
	if rec.Failure != "" {
		t.Fatalf("crash campaign failed: %s\n  schedule: %v", rec.Failure, rec.Schedule)
	}
	if !rec.CutFired {
		t.Fatal("power cut never fired")
	}
	if rec.CutAt != "alloc-bump" {
		t.Fatalf("cut at %q, want alloc-bump", rec.CutAt)
	}
	if rec.ResumeGCs == 0 {
		t.Fatal("resumed workload ran no collections")
	}
	if rec.Verifications == 0 {
		t.Fatal("verifier never ran")
	}
	if rec.RecoveryCycles == 0 {
		t.Fatal("recovery charged no simulated time")
	}
}

// TestCrashCampaignDeterministic: the baton crash pipeline replays
// bit-identically — doomed run, image, recovery statistics, resume.
func TestCrashCampaignDeterministic(t *testing.T) {
	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true}
	camp := NewCampaign(42, 3)
	camp.Events = append(camp.Events, Event{Point: probe.GCEnd, Nth: 4, Act: ActPowerCut})
	a := RunCrashCampaign(cfg, camp, quickOpts())
	b := RunCrashCampaign(cfg, camp, quickOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same crash campaign diverged:\n%+v\n%+v", a, b)
	}
	if !a.CutFired {
		t.Fatal("cut never fired; determinism check is vacuous")
	}
}

// TestCrashCampaignThreaded: on the threaded engine the cut is deferred to
// a stop-the-world boundary, then recovery and resume run with real
// mutator goroutines over the worn device.
func TestCrashCampaignThreaded(t *testing.T) {
	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4, Threaded: true}
	camp := NewCampaign(42, 3)
	camp.Events = append(camp.Events, Event{Point: probe.GCEnd, Nth: 4, Act: ActPowerCut})
	rec := RunCrashCampaign(cfg, camp, quickOpts())
	if rec.Failure != "" {
		t.Fatalf("threaded crash campaign failed: %s", rec.Failure)
	}
	if rec.CutFired && rec.ResumeGCs == 0 {
		t.Fatal("resumed workload ran no collections")
	}
}

// TestCrashSweepCampaigns: the full point sweep on the baton
// configurations (write-through on and off); every campaign must end
// verifier-clean, gracefully worn out, or with its cut unreached — never
// failed.
func TestCrashSweepCampaigns(t *testing.T) {
	opt := quickOpts()
	opt.Seeds = 1
	opt.Configs = []TortureConfig{
		{Collector: vm.StickyImmix, FailureAware: true},
		{Collector: vm.StickyImmix, FailureAware: true, NoWriteThrough: true},
	}
	sum := CrashSweep(opt)
	if want := len(opt.Configs) * int(probe.NumPoints); sum.Campaigns != want {
		t.Fatalf("ran %d campaigns, want %d", sum.Campaigns, want)
	}
	for _, r := range sum.Records {
		if r.Failure != "" {
			t.Errorf("%s seed=%d cut=%s failed: %s\n  minimal: %v",
				r.Config, r.Seed, r.Cut, r.Failure, r.MinSchedule)
		}
	}
	// Rare points (stall retries, mark increments without a pause budget)
	// legitimately never reach their cut at this reduced iteration count;
	// the core allocation and collection boundaries must.
	if sum.CutsFired < sum.Campaigns/3 {
		t.Fatalf("only %d/%d cuts fired; the sweep barely exercised recovery",
			sum.CutsFired, sum.Campaigns)
	}
	firedAt := map[string]bool{}
	for _, r := range sum.Records {
		if r.CutFired {
			firedAt[r.CutAt] = true
		}
	}
	for _, p := range []string{"alloc-bump", "gc-begin", "gc-end"} {
		if !firedAt[p] {
			t.Errorf("no cut ever fired at %s", p)
		}
	}
}

// TestCrashVerifierCatchesCorruptedRecovery is the negative control: a
// deliberately corrupted recovered kernel table must be reported, in both
// directions.
func TestCrashVerifierCatchesCorruptedRecovery(t *testing.T) {
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{Size: 8 * failmap.PageSize, TrackData: true, Seed: 3}, clock)
	dev.ForceFail(9, nil)
	dev2, err := pcm.NewDeviceFromImage(dev.Snapshot(), clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	kern := kernel.New(kernel.Config{PCMPages: 8, Device: dev2, Clock: clock})
	if _, err := kern.Recover(kernel.RecoverOptions{}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	target := verify.RecoveredTarget{Pool: kern, Scan: dev2, Clusters: dev2}
	if rep := verify.Recovered(target); !rep.Ok() {
		t.Fatalf("clean recovery flagged: %v", rep.Err())
	}

	// Corrupt the table with a bogus failed line: a working line written off.
	m := failmap.New(8 * failmap.PageSize)
	m.SetLineFailed(9)   // the genuine failure stays
	m.SetLineFailed(200) // the corruption
	if err := kern.RestoreFailureTable(m.EncodeRLE()); err != nil {
		t.Fatal(err)
	}
	if rep := verify.Recovered(target); rep.Ok() {
		t.Fatal("corrupted recovered table passed verification")
	}

	// The dangerous direction: drop the genuine failure (resurrected line).
	if err := kern.RestoreFailureTable(failmap.New(8 * failmap.PageSize).EncodeRLE()); err != nil {
		t.Fatal(err)
	}
	rep := verify.Recovered(target)
	if rep.Ok() {
		t.Fatal("resurrected failed line passed verification")
	}
}

// TestCrashEventRoundTrip: the power-cut action round-trips through the
// schedule syntax like every other.
func TestCrashEventRoundTrip(t *testing.T) {
	e := Event{Point: probe.GCTraceMark, Nth: 17, Act: ActPowerCut}
	if e.String() != "gc-trace-mark@17:power-cut" {
		t.Fatalf("rendered %q", e.String())
	}
	got, err := ParseEvent(e.String())
	if err != nil || got != e {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

// crashCampaignBaton runs the campaign the allocation guards measure: baton
// engine, write-through, power cut at the fourth collection — a device
// built, snapshotted at the cut and restored, on a 16 MB pool.
func crashCampaignBaton() CrashRecord {
	camp := NewCampaign(42, 3)
	camp.Events = append(camp.Events, Event{Point: probe.GCEnd, Nth: 4, Act: ActPowerCut})
	return RunCrashCampaign(TortureConfig{Collector: vm.StickyImmix, FailureAware: true}, camp, quickOpts())
}

// TestCrashCampaignAllocation: what a campaign allocates follows what it
// stores, not the pool it runs on. The wear arrays of the device, of its
// image at the cut and of the restored device are 2.25 MB each, plus the
// endurance limits the writes drew, and the whole campaign about 9 MB;
// with every limit drawn at boot it was 15 MB, and with line contents held
// densely as well those three arrays alone were 61 MB (20.25 MB each).
func TestCrashCampaignAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := crashCampaignBaton()
	runtime.ReadMemStats(&after)
	if rec.Failure != "" || !rec.CutFired {
		t.Fatalf("campaign did not cut and recover: fired=%v failure=%q", rec.CutFired, rec.Failure)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 35 {
		t.Fatalf("one crash campaign allocated %.1f MB, want < 35", mb)
	}
}

// BenchmarkCrashCampaign is the same campaign per op; B/op is the number
// TestCrashCampaignAllocation bounds (make bench-smoke runs it once).
func BenchmarkCrashCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec := crashCampaignBaton(); rec.Failure != "" {
			b.Fatal(rec.Failure)
		}
	}
}

// TestShrinkKeepsTheCut holds CrashSweep's shrink rule on a synthetic
// failure predicate, with no simulator: the power cut survives even when
// the failure does not need it, only the preamble event the failure needs
// survives beside it, and a threaded failure that its baton twin does not
// reproduce keeps its full schedule.
func TestShrinkKeepsTheCut(t *testing.T) {
	bug := Event{Point: probe.GCEnd, Nth: 3, Act: ActFailHere}
	cut := Event{Point: probe.AllocBump, Nth: 600, Act: ActPowerCut}
	camp := Campaign{Seed: 7, Events: []Event{
		{Point: probe.OSUpcall, Nth: 2, Act: ActFailHere},
		bug,
		{Point: probe.AllocBump, Nth: 90, Act: ActBufferStorm},
		cut,
		{Point: probe.GCBegin, Nth: 5, Act: ActFailHere},
	}}
	needsBug := func(_ TortureConfig, c Campaign) bool { return slices.Contains(c.Events, bug) }

	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true}
	min, ok := shrink(cfg, camp, needsBug, keepCut)
	if want := []Event{bug, cut}; !ok || min.Seed != camp.Seed || !slices.Equal(min.Events, want) {
		t.Fatalf("shrink = %v (ok %v), want %v", min.Schedule(), ok, Campaign{Events: want}.Schedule())
	}
	if min, _ := shrink(cfg, camp, needsBug, nil); slices.Contains(min.Events, cut) {
		t.Fatalf("without keepCut the cut should go: %v", min.Schedule())
	}

	cfg.Threaded = true
	threadedOnly := func(c TortureConfig, _ Campaign) bool { return c.Threaded }
	orig := slices.Clone(camp.Events)
	min, ok = shrink(cfg, camp, threadedOnly, keepCut)
	if ok || min.Seed != camp.Seed || !slices.Equal(min.Events, orig) {
		t.Fatalf("threaded-only failure: shrink = %v (ok %v), want the campaign unchanged and ok false",
			min.Schedule(), ok)
	}
}
