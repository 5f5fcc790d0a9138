package chaos

import (
	"reflect"
	"strings"
	"testing"

	"wearmem/internal/kv"
	"wearmem/internal/probe"
	"wearmem/internal/vm"
)

// quickOpts keeps in-tree torture fast; the full sweep is wearsim -torture.
func quickOpts() Options {
	return Options{Seeds: 3, Iters: 1500}
}

func TestTortureAllConfigsPass(t *testing.T) {
	sum := Run(quickOpts())
	if sum.Campaigns != 3*len(AllConfigs()) {
		t.Fatalf("ran %d campaigns, want %d", sum.Campaigns, 3*len(AllConfigs()))
	}
	seen := map[string]bool{}
	for _, r := range sum.Records {
		seen[r.Config] = true
		if r.Failure != "" {
			t.Errorf("%s seed=%d failed: %s\n  schedule: %v\n  fired: %v\n  minimal: %v",
				r.Config, r.Seed, r.Failure, r.Schedule, r.Fired, r.MinSchedule)
		}
		if r.GCs == 0 {
			t.Errorf("%s seed=%d: no collections", r.Config, r.Seed)
		}
		if r.Verifications == 0 {
			t.Errorf("%s seed=%d: verifier never ran", r.Config, r.Seed)
		}
	}
	for _, cfg := range AllConfigs() {
		if !seen[cfg.Name()] {
			t.Errorf("configuration %s missing from records", cfg.Name())
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true}
	camp := NewCampaign(6, 4) // seed 6 fired multiple injections in development
	a := RunCampaign(cfg, camp, quickOpts())
	b := RunCampaign(cfg, camp, quickOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same campaign diverged:\n%+v\n%+v", a, b)
	}
	if len(a.Fired) == 0 {
		t.Fatal("campaign fired no injections; determinism check is vacuous")
	}
}

func TestCampaignSchedulesDiffer(t *testing.T) {
	if reflect.DeepEqual(NewCampaign(1, 4).Events, NewCampaign(2, 4).Events) {
		t.Fatal("distinct seeds produced identical schedules")
	}
	if !reflect.DeepEqual(NewCampaign(7, 4), NewCampaign(7, 4)) {
		t.Fatal("same seed produced different campaigns")
	}
}

// TestBreakSmashHeader proves the suite can fail: a planted header
// corruption must be reported on every configuration.
func TestBreakSmashHeader(t *testing.T) {
	opt := quickOpts()
	opt.Seeds = 1
	opt.Break = BreakSmashHeader
	sum := Run(opt)
	for _, r := range sum.Records {
		if r.Failure == "" {
			t.Errorf("%s: smashed header not detected", r.Config)
		} else if !strings.Contains(r.Failure, "graph") {
			t.Errorf("%s: wrong detector: %s", r.Config, r.Failure)
		}
	}
}

// TestBreakSilentTaint proves the kernel-table cross-check earns its keep:
// a line retired behind the OS's back is caught by the honest verifier and
// missed by one crippled with SkipKernelTable.
func TestBreakSilentTaint(t *testing.T) {
	opt := quickOpts()
	opt.Seeds = 2
	opt.Break = BreakSilentTaint
	opt.Configs = []TortureConfig{{Collector: vm.StickyImmix, FailureAware: true}}
	honest := Run(opt)
	if honest.Failed != honest.Campaigns {
		t.Fatalf("honest verifier caught %d/%d taints", honest.Failed, honest.Campaigns)
	}
	for _, r := range honest.Failures() {
		if !strings.Contains(r.Failure, "kernel-table") {
			t.Errorf("wrong detector: %s", r.Failure)
		}
	}
	opt.SkipKernelTable = true
	crippled := Run(opt)
	if crippled.Failed != 0 {
		t.Fatalf("crippled verifier still failed %d campaigns; negative control broken", crippled.Failed)
	}
}

// TestMinimize shrinks a failing schedule down to the one event that
// matters.
func TestMinimize(t *testing.T) {
	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true}
	camp := Campaign{Seed: 3, Events: []Event{
		{Point: probe.OSUpcall, Nth: 9999, Act: ActFailHere},        // never fires
		{Point: probe.GCEnd, Nth: 3, Act: ActSmashHeader},           // the bug
		{Point: probe.AllocBump, Nth: 9999999, Act: ActBufferStorm}, // never fires
	}}
	opt := quickOpts()
	if rec := RunCampaign(cfg, camp, opt); rec.Failure == "" {
		t.Fatal("padded campaign did not fail")
	}
	min, _ := shrink(cfg, camp, campaignFails(opt), nil)
	if len(min.Events) != 1 || min.Events[0].Act != ActSmashHeader {
		t.Fatalf("minimized to %v, want the single smash-header event", min.Schedule())
	}
}

func TestEventRoundTrip(t *testing.T) {
	for _, e := range NewCampaign(11, 8).Events {
		back, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if back != e {
			t.Fatalf("round trip %s -> %+v", e, back)
		}
	}
	if _, err := ParseEvent("gc-end@0:fail-here"); err == nil {
		t.Fatal("accepted occurrence 0")
	}
	if _, err := ParseEvent("nope@3:fail-here"); err == nil {
		t.Fatal("accepted unknown point")
	}
	if _, err := ParseEvent("gc-end@3:nope"); err == nil {
		t.Fatal("accepted unknown action")
	}
}

// FuzzParseEvent: the -torture-schedule decoder returns an event or an
// error and never panics, and an event it accepts renders as a string that
// parses back to that event. The corpus is every probe point with every
// action.
func FuzzParseEvent(f *testing.F) {
	for p := probe.Point(0); p < probe.NumPoints; p++ {
		for a := range actionNames {
			f.Add(Event{Point: p, Nth: 3, Act: a}.String())
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseEvent(s)
		if err != nil {
			return
		}
		if back, err := ParseEvent(e.String()); err != nil || back != e {
			t.Fatalf("%q parsed to %+v, which renders as %q and parses back to %+v, %v", s, e, e, back, err)
		}
	})
}

// sweepNames are the configuration lists the full torture sweep (make
// torture) runs, one per line of it.
var sweepNames = []string{
	"*/*",
	"*/*/m4",
	"IX/*/m4/thr S-IX/*/m4/thr",
	"S-IX/*/inc10000",
	"*/*/pol:rotate",
	"*/*/pol:decoder",
	"*/*/pol:migrate",
}

func mustParse(t testing.TB, names string) []TortureConfig {
	t.Helper()
	cfgs, err := ParseConfigs(names)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// Every configuration the sweeps and the crash sweep run is named back by
// its Name, and the wildcards expand in AllConfigs order.
func TestParseConfigsInvertsName(t *testing.T) {
	if got := mustParse(t, "*/*"); !reflect.DeepEqual(got, AllConfigs()) {
		t.Fatalf("*/* = %v, want AllConfigs()", got)
	}
	cfgs := CrashConfigs()
	for _, names := range sweepNames {
		cfgs = append(cfgs, mustParse(t, names)...)
	}
	for _, c := range cfgs {
		if got := mustParse(t, c.Name()); !reflect.DeepEqual(got, []TortureConfig{c}) {
			t.Errorf("ParseConfigs(%q) = %+v, want [%+v]", c.Name(), got, c)
		}
	}
	// A kv scenario name carries commas; the threaded engine takes a pause
	// budget and the device without write-through.
	kvName := kv.MustRegister(kv.Config{Keys: 128, Zipf: 1.1})
	got := mustParse(t, "S-IX/*/m4/thr/"+kvName+"/inc10000/nowt")
	want := []TortureConfig{
		{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4, Threaded: true, Scenario: kvName, PauseBudget: 10000, NoWriteThrough: true},
		{Collector: vm.StickyImmix, Mutators: 4, Threaded: true, Scenario: kvName, PauseBudget: 10000, NoWriteThrough: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// A name that does not read back as itself, or names a configuration no
// campaign can run, is refused with an error naming it.
func TestParseConfigsRefuses(t *testing.T) {
	for _, s := range []string{
		"", " ", "S-IX", "XX/aware", "S-IX/sometimes", "s-ix/aware", "S-IX/aware/",
		"S-IX/aware/m0", "S-IX/aware/m1", "S-IX/aware/m04", "S-IX/aware/m+4", "S-IX/aware/inc0",
		"S-IX/aware/thr/m4", "S-IX/aware/thr/thr", "S-IX/aware/nowt/kv", "S-IX/aware/kv/kv",
		"S-IX/aware/p:paper", "S-IX/aware/r:", "S-IX/aware/p:nope", "S-IX/aware/r:nope",
		"S-IX/aware/p:rotate/r:rotate", "S-IX/aware/pol:paper", "S-IX/aware/pol:", "S-IX/aware/pol:nope",
		"MS/aware/m4/thr", "S-MS/*/thr", "*/*/m4/thr", "IX/aware/inc10000",
		"S-IX/aware/nope", "S-IX/aware/m4x", "S-IX/aware S-IX/aware/m1",
	} {
		names := strings.Fields(s)
		if cfgs, err := ParseConfigs(s); err == nil {
			t.Errorf("ParseConfigs(%q) = %v, want an error", s, cfgs)
		} else if len(names) > 0 && !strings.Contains(err.Error(), names[len(names)-1]) {
			t.Errorf("ParseConfigs(%q): error %q does not name the input", s, err)
		}
	}
}

// FuzzParseConfigs: the configuration-list decoder returns an error or
// configurations each of whose names parses back to exactly that
// configuration. The corpus is every name the full sweeps and the crash
// sweep run.
func FuzzParseConfigs(f *testing.F) {
	cfgs := CrashConfigs()
	for _, names := range sweepNames {
		f.Add(names)
		cfgs = append(cfgs, mustParse(f, names)...)
	}
	for _, c := range cfgs {
		f.Add(c.Name())
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfgs, err := ParseConfigs(s)
		if err != nil {
			return
		}
		for _, c := range cfgs {
			if back, err := ParseConfigs(c.Name()); err != nil || !reflect.DeepEqual(back, []TortureConfig{c}) {
				t.Fatalf("%q gave %+v, named %q, which parses back to %+v, %v", s, c, c.Name(), back, err)
			}
		}
	})
}

// Multi-mutator campaigns run the partitioned workload on the baton
// scheduler under the same injections, with per-context block ownership
// verified at every block installation.
func TestTortureMultiMutator(t *testing.T) {
	opt := quickOpts()
	opt.Seeds = 2
	for _, cfg := range AllConfigs() {
		cfg.Mutators = 4
		opt.Configs = append(opt.Configs, cfg)
	}
	sum := Run(opt)
	if sum.Campaigns != 2*len(AllConfigs()) {
		t.Fatalf("ran %d campaigns, want %d", sum.Campaigns, 2*len(AllConfigs()))
	}
	for _, r := range sum.Records {
		if !strings.HasSuffix(r.Config, "/m4") {
			t.Errorf("config %s missing mutator suffix", r.Config)
		}
		if r.Failure != "" {
			t.Errorf("%s seed=%d failed: %s\n  schedule: %v\n  fired: %v\n  minimal: %v",
				r.Config, r.Seed, r.Failure, r.Schedule, r.Fired, r.MinSchedule)
		}
		if r.GCs == 0 {
			t.Errorf("%s seed=%d: no collections", r.Config, r.Seed)
		}
		if r.Verifications == 0 {
			t.Errorf("%s seed=%d: verifier never ran", r.Config, r.Seed)
		}
	}
}

// Threaded campaigns run the partitioned workload on real mutator
// goroutines with deferred injection at stop-the-world boundaries; the
// heap verifier still runs at every collection. Outcomes are
// nondeterministic, so the assertion is only that every campaign passes.
func TestTortureThreaded(t *testing.T) {
	opt := quickOpts()
	opt.Seeds = 2
	opt.Configs = mustParse(t, "IX/*/m4/thr S-IX/*/m4/thr")
	sum := Run(opt)
	if sum.Campaigns != 2*len(opt.Configs) {
		t.Fatalf("ran %d campaigns, want %d", sum.Campaigns, 2*len(opt.Configs))
	}
	for _, r := range sum.Records {
		if !strings.HasSuffix(r.Config, "/m4/thr") {
			t.Errorf("config %s missing threaded suffix", r.Config)
		}
		if r.Failure != "" {
			t.Errorf("%s seed=%d failed: %s\n  schedule: %v\n  fired: %v\n  minimal: %v",
				r.Config, r.Seed, r.Failure, r.Schedule, r.Fired, r.MinSchedule)
		}
		if r.GCs == 0 {
			t.Errorf("%s seed=%d: no collections", r.Config, r.Seed)
		}
		if r.Verifications == 0 {
			t.Errorf("%s seed=%d: verifier never ran", r.Config, r.Seed)
		}
	}
}

// A planted header corruption must be caught on the threaded engine too:
// the smash happens at a GCEnd boundary and the verifier runs at the same
// boundary right after it.
func TestTortureThreadedCatchesBreak(t *testing.T) {
	opt := quickOpts()
	opt.Seeds = 1
	opt.Break = BreakSmashHeader
	opt.Configs = []TortureConfig{
		{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4, Threaded: true},
	}
	sum := Run(opt)
	for _, r := range sum.Records {
		if r.Failure == "" {
			t.Errorf("%s: smashed header not detected", r.Config)
		}
	}
}

// The same multi-mutator campaign must replay identically: the scheduler
// adds no nondeterminism to the injection machinery.
func TestMultiMutatorCampaignDeterministic(t *testing.T) {
	cfg := TortureConfig{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4}
	camp := NewCampaign(6, 4)
	a := RunCampaign(cfg, camp, quickOpts())
	b := RunCampaign(cfg, camp, quickOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same multi-mutator campaign diverged:\n%+v\n%+v", a, b)
	}
	if len(a.Fired) == 0 {
		t.Fatal("campaign fired no injections; determinism check is vacuous")
	}
}

// TestTortureRemapPolicies tortures each non-stock frame policy:
// wear-triggered migrations commit under injected failures, with the
// policy-accounting invariants checked at every collection boundary, and
// the campaign point list extends to the remap boundary.
func TestTortureRemapPolicies(t *testing.T) {
	var cfgs []TortureConfig
	for _, pol := range []string{"rotate", "decoder", "migrate"} {
		cfgs = append(cfgs, TortureConfig{
			Collector: vm.StickyImmix, FailureAware: true, Policy: pol,
		})
	}
	opt := quickOpts()
	opt.Configs = cfgs
	sum := Run(opt)
	for _, r := range sum.Records {
		if r.Failure != "" {
			t.Errorf("%s seed=%d failed: %s\n  schedule: %v\n  fired: %v\n  minimal: %v",
				r.Config, r.Seed, r.Failure, r.Schedule, r.Fired, r.MinSchedule)
		}
		if !strings.Contains(r.Config, "/pol:") {
			t.Errorf("policy suffix missing from configuration name %q", r.Config)
		}
	}
	// The extended point list actually reaches the remap boundary: some
	// seed's schedule must target it (the draw is deterministic per seed).
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		for _, e := range NewCampaignFrom(seed, 4, policyPoints).Events {
			if e.Point == probe.PolicyRemap {
				found = true
			}
		}
	}
	if !found {
		t.Error("no schedule in seeds 1..20 targets the policy-remap boundary")
	}
	// And the replay is deterministic, policy machinery included.
	cfg := cfgs[1]
	camp := NewCampaignFrom(3, 4, policyPoints)
	a := RunCampaign(cfg, camp, quickOpts())
	b := RunCampaign(cfg, camp, quickOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same policy campaign diverged:\n%+v\n%+v", a, b)
	}
}
