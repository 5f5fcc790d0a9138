package chaos

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
// stores, not the pool it runs on. The device, the image at the cut and the
// restored device each hold the one 4096-slot chunk of wear counters the
// run wrote (32 KB of the 2 MB a dense array took), no chunk of broken
// flags, 23 pages of contents and the 4096 endurance limits the writes
// drew; the whole campaign is 2.7 MB run alone (1.8 MB after a first
// campaign has paid the stack's one-time setup). With dense wear arrays in
// the devices it was 7.1 MB, with dense ones in the image too 8.4 MB, with
// every limit drawn at boot 15 MB, and with line contents held densely as
// well the three wear arrays alone were 61 MB (20.25 MB each). The bound is
// the figure run alone plus 25 %.
func TestCrashCampaignAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := crashCampaignBaton()
	runtime.ReadMemStats(&after)
	if rec.Failure != "" || !rec.CutFired {
		t.Fatalf("campaign did not cut and recover: fired=%v failure=%q", rec.CutFired, rec.Failure)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 3.4 {
		t.Fatalf("one crash campaign allocated %.2f MB, want < 3.4", mb)
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

// sweepCampaign is the campaign CrashSweep runs for point p at seed: the
// seed's preamble, the break mode's sabotage, then the cut.
func sweepCampaign(opt Options, seed int64, p probe.Point) Campaign {
	camp := NewCampaign(seed, opt.Events)
	camp.Events = append(camp.Events, breakEvents(opt.Break)...)
	camp.Events = append(camp.Events, Event{Point: p, Nth: cutNth(p), Act: ActPowerCut})
	return camp
}

// TestCrashSweepMatchesCampaigns is the differential oracle of the shared
// doomed pass: every record of a baton crash sweep is, byte for byte in
// JSON, the record RunCrashCampaign gives that record's campaign run alone
// (its shrunk schedule aside, which only the sweep computes), with and
// without a planted break, so failures before a cut reach it as they do on
// a campaign of its own. Without the break each configuration has cuts that
// fired and cuts that never did, and the bounded-pause and rotating-policy
// sweeps cut at their own boundaries.
func TestCrashSweepMatchesCampaigns(t *testing.T) {
	for _, brk := range []string{"", BreakSmashHeader} {
		for _, tc := range []struct {
			names        string
			seeds, iters int
			own          string // a point only this configuration reaches, whose cut must fire
		}{
			{"S-IX/aware S-IX/aware/nowt", 2, 2500, ""},
			{"S-IX/aware/inc10000", 1, 2500, "gc-mark-increment"},
			// Rotation's resumed runs are the slow ones; 1500 iterations
			// still reach its remap boundary.
			{"S-IX/aware/pol:rotate", 1, 1500, "policy-remap"},
		} {
			opt := Options{Seeds: tc.seeds, Iters: tc.iters, Break: brk, Configs: mustParse(t, tc.names)}.withDefaults()
			if brk != "" {
				// The smash lands at the third collection, and every
				// campaign it fails stops there: short runs serve the shrink.
				opt.Iters = 800
			}
			sum := CrashSweep(opt)
			var jobs []job
			for _, cfg := range opt.Configs {
				for p := probe.Point(0); p < probe.NumPoints; p++ {
					for s := 0; s < opt.Seeds; s++ {
						jobs = append(jobs, job{cfg, sweepCampaign(opt, opt.SeedBase+int64(s), p)})
					}
				}
			}
			alone := sweep(jobs, opt.Workers, func(j job) CrashRecord { return RunCrashCampaign(j.cfg, j.camp, opt) })
			fired, unfired := map[string]int{}, map[string]int{}
			for i, got := range sum.Records {
				got.MinSchedule = nil
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(alone[i])
				if !bytes.Equal(gj, wj) {
					t.Errorf("break %q: the sweep's record differs from its campaign run alone:\n sweep    %s\n campaign %s", brk, gj, wj)
				}
				if got.CutFired {
					fired[got.Config]++
				} else {
					unfired[got.Config]++
				}
				if brk == "" && tc.own != "" && strings.HasPrefix(got.Cut, tc.own+"@") && !got.CutFired {
					t.Errorf("%s seed %d: the %s cut never fired", got.Config, got.Seed, tc.own)
				}
			}
			for _, cfg := range opt.Configs {
				if brk == "" && (fired[cfg.Name()] == 0 || unfired[cfg.Name()] == 0) {
					t.Errorf("%s: %d cuts fired and %d did not; the oracle needs both",
						cfg.Name(), fired[cfg.Name()], unfired[cfg.Name()])
				}
			}
		}
	}
}

// TestCrashSweepCatchesBreak: a crash sweep with a planted smashed header
// fails every campaign whose cut fires after the smash or never fires, and
// only those; each failure shrinks to a schedule that keeps its cut and,
// read back through ParseEvent, fails again on its own.
func TestCrashSweepCatchesBreak(t *testing.T) {
	opt := quickOpts()
	opt.Seeds, opt.Break = 1, BreakSmashHeader
	opt.Configs = mustParse(t, "S-IX/aware")
	opt = opt.withDefaults()
	sum := CrashSweep(opt)

	// Which cuts fire before the smash: the order of one pass's fired log.
	pass := sweepCampaign(opt, opt.SeedBase, 0)
	for p := probe.Point(1); p < probe.NumPoints; p++ {
		pass.Events = append(pass.Events, Event{Point: p, Nth: cutNth(p), Act: ActPowerCut})
	}
	_, in := runCampaignInner(opt.Configs[0], pass, opt, nil, nil)
	early := map[string]bool{}
	for _, f := range in.Log {
		if f.Event.Act == ActSmashHeader {
			break
		}
		if f.Event.Act == ActPowerCut {
			early[f.Event.String()] = true
		}
	}
	if sum.Failed == 0 || sum.Failed != sum.Campaigns-len(early) {
		t.Fatalf("%d of %d campaigns failed; %d cuts fire before the smash", sum.Failed, sum.Campaigns, len(early))
	}
	for _, r := range sum.Records {
		if early[r.Cut] {
			if r.Failure != "" || !r.CutFired {
				t.Errorf("cut %s fires before the smash, yet fired=%v failure=%q", r.Cut, r.CutFired, r.Failure)
			}
			continue
		}
		if !strings.HasPrefix(r.Failure, "pre-cut: ") || !strings.Contains(r.Failure, "unregistered type") {
			t.Errorf("cut %s: failure %q, want the smashed header before the cut", r.Cut, r.Failure)
		}
		if !slices.Contains(r.MinSchedule, r.Cut) {
			t.Errorf("cut %s: minimal schedule %v lost the cut", r.Cut, r.MinSchedule)
		}
		camp := Campaign{Seed: r.Seed}
		for _, s := range r.MinSchedule {
			e, err := ParseEvent(s)
			if err != nil {
				t.Fatal(err)
			}
			camp.Events = append(camp.Events, e)
		}
		if rec := RunCrashCampaign(opt.Configs[0], camp, opt); rec.Failure == "" {
			t.Errorf("cut %s: minimal schedule %v passes on replay", r.Cut, r.MinSchedule)
		}
	}
}

// TestCrashSweepAllocation: a sweep's power cuts cost what their runs
// wrote. A one-seed S-IX/aware sweep runs one doomed pass, takes the images
// of the six cuts that fire and restores each: 13.8 MB run alone, most of
// it the resumed workloads, now that the seven devices booted hold only the
// wear chunks their writes reached. With dense wear arrays in the devices
// (2.25 MB each) it was 29.1 MB, and with one doomed run per cut and dense
// images 75.9 MB. The bound is the figure run alone plus 25 %.
func TestCrashSweepAllocation(t *testing.T) {
	opt := Options{Seeds: 1, Configs: mustParse(t, "S-IX/aware")}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum := CrashSweep(opt)
	runtime.ReadMemStats(&after)
	if sum.Failed != 0 || sum.CutsFired == 0 {
		t.Fatalf("sweep did not cut and recover cleanly: %d fired, %d failed", sum.CutsFired, sum.Failed)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 17.3 {
		t.Fatalf("a one-seed baton crash sweep allocated %.1f MB, want < 17.3", mb)
	}
}
