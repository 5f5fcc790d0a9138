package cliconfig

import (
	"flag"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"wearmem/internal/harness"
	"wearmem/internal/kernel"
	"wearmem/internal/vm"
)

// parse registers the knobs on a fresh flag set and parses args.
func parse(args ...string) (harness.RunConfig, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var rc harness.RunConfig
	Register(fs, &rc)
	return rc, fs.Parse(args)
}

// Register then parse must round-trip every knob into the RunConfig the
// experiments would build by hand.
func TestSingleRunConfig(t *testing.T) {
	rc, err := parse(
		"-bench", "kv", "-mult", "2.5", "-rate", "0.1", "-cluster", "2",
		"-line", "128", "-collector", "IX", "-seed", "9", "-iters", "77",
		"-dynfail", "3", "-mutators", "4", "-tw", "2", "-engine", "threaded",
		"-wall", "-latency", "-writethrough",
	)
	if err != nil {
		t.Fatal(err)
	}
	want := harness.RunConfig{
		Bench: "kv", HeapMult: 2.5, Collector: vm.Immix, LineSize: 128,
		FailureAware: true, FailureRate: 0.1, ClusterPages: 2,
		Seed: 9, Iterations: 77, DynFailEvery: 3,
		Mutators: 4, TraceWorkers: 2, Engine: "threaded",
		RecordWall: true, Latency: true, WriteThrough: true,
	}
	if rc != want {
		t.Fatalf("RunConfig mismatch:\n got %+v\nwant %+v", rc, want)
	}
	// No flags at all is the paper's S-IX at 2x heap on one mutator.
	if rc, err = parse(); err != nil || rc != defaults {
		t.Fatalf("no flags gave %+v (%v), want the defaults %+v", rc, err, defaults)
	}
}

// "baton" is the canonical spelling of the default engine and must map to
// the empty string so memo keys and goldens treat the two identically.
func TestEngineCanonicalization(t *testing.T) {
	for _, name := range []string{"", "baton"} {
		rc, err := parse("-engine", name)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Engine != "" {
			t.Fatalf("engine %q mapped to %q, want empty", name, rc.Engine)
		}
	}
	if _, err := parse("-engine", "warp"); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if _, err := parse("-collector", "ZGC"); err == nil {
		t.Fatal("bogus collector accepted")
	}
}

// Override applies -explain side specs on top of a base configuration,
// with failure awareness following the rate unless pinned.
func TestOverride(t *testing.T) {
	base := harness.RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, LineSize: 256}
	rc, err := Override(base, "rate=0.25, cluster=2, latency=true")
	if err != nil {
		t.Fatal(err)
	}
	if rc.FailureRate != 0.25 || rc.ClusterPages != 2 || !rc.FailureAware || !rc.Latency {
		t.Fatalf("override not applied: %+v", rc)
	}
	if rc, err = Override(base, "base"); err != nil || rc != base {
		t.Fatalf("base spec changed the config: %+v (%v)", rc, err)
	}
	for _, spec := range []string{"rate=0.25, aware=false", "aware=false, rate=0.25"} {
		if rc, err = Override(base, spec); err != nil || rc.FailureAware {
			t.Fatalf("%q: pinned awareness ignored: %+v (%v)", spec, rc, err)
		}
	}
	if _, err = Override(base, "bogus=1"); err == nil {
		t.Fatal("unknown override key accepted")
	}
	if _, err = Override(base, "mult"); err == nil {
		t.Fatal("missing value accepted")
	}
}

// good holds one in-range value per knob, bad the values each must refuse.
var (
	good = map[string]string{
		"bench": "kv", "mult": "2.5", "rate": "0.1", "aware": "true", "cluster": "2",
		"gran": "1024", "line": "128", "collector": "S-MS", "nocomp": "true", "seed": "9",
		"iters": "77", "dynfail": "3", "mutators": "4", "tw": "2", "engine": "threaded",
		"procs": "2", "wall": "true", "latency": "true", "writethrough": "true",
		"pause-budget": "10000", "placement": "rotate", "remap": "decoder",
	}
	bad = map[string][]string{
		"rate": {"1", "1.5", "-0.1", "NaN", "x"},
		"mult": {"0", "-1", "NaN", "Inf", "+Inf", "-Inf", "1e30", "1000.5"},
		"line": {"0", "32", "100", "65536"}, "gran": {"32", "100"},
		"cluster": {"-1"}, "iters": {"-1"}, "dynfail": {"-1"}, "mutators": {"-1"}, "tw": {"-1"},
		"procs": {"-1"}, "pause-budget": {"-1", "two"},
		"collector": {"ZGC"}, "engine": {"warp"}, "placement": {"bogus"}, "remap": {"bogus"},
		"wall": {"maybe"}, "seed": {"1.5"},
	}
)

// The knob table is the only declaration of a run knob. This walks it: the
// flags and -explain keys are exactly the listed ones, one spelling each, a
// knob's flag and override set the same field to the same value, every
// out-of-range value is refused on both routes, and no RunConfig field is
// out of reach.
func TestKnobTable(t *testing.T) {
	var flags, keys []string
	reached := map[string]bool{} // RunConfig fields some knob sets
	for _, k := range knobs {
		v, ok := good[k.name]
		if !ok {
			t.Errorf("knob %q: the test has no in-range value for it", k.name)
			continue
		}
		var want harness.RunConfig
		if err := k.set(&want, v); err != nil {
			t.Errorf("knob %q refused %q: %v", k.name, v, err)
		}
		zero := reflect.ValueOf(harness.RunConfig{})
		for i := 0; i < zero.NumField(); i++ {
			if !reflect.DeepEqual(reflect.ValueOf(want).Field(i).Interface(), zero.Field(i).Interface()) {
				reached[zero.Type().Field(i).Name] = true
			}
		}

		// The flag and the override, from the same start, end at the same
		// configuration.
		keys = append(keys, k.name)
		want, err := Override(defaults, k.name+"="+v)
		if err != nil {
			t.Errorf("override %s=%s: %v", k.name, v, err)
		}
		for _, b := range bad[k.name] {
			if _, err := Override(defaults, k.name+"="+b); err == nil {
				t.Errorf("override %s=%s accepted", k.name, b)
			}
		}
		if k.usage == "" {
			continue
		}
		flags = append(flags, k.name)
		if got, err := parse("-" + k.name + "=" + v); err != nil || got != want {
			t.Errorf("flag -%s=%s: %+v (%v), want %+v", k.name, v, got, err, want)
		}
		for _, b := range bad[k.name] {
			if _, err := parse("-" + k.name + "=" + b); err == nil || !strings.Contains(err.Error(), "-"+k.name) {
				t.Errorf("flag -%s=%s: error %v does not refuse it by name", k.name, b, err)
			}
		}
	}

	// None added, none dropped: one spelling per knob, a flag unless the
	// knob is an -explain key only.
	sort.Strings(flags)
	sort.Strings(keys)
	wantFlags := strings.Fields("bench cluster collector dynfail engine iters latency line " +
		"mult mutators pause-budget placement procs rate remap seed tw wall writethrough")
	wantKeys := strings.Fields("aware bench cluster collector dynfail engine gran iters " +
		"latency line mult mutators nocomp pause-budget placement procs rate remap seed " +
		"tw wall writethrough")
	if !reflect.DeepEqual(flags, wantFlags) {
		t.Errorf("flags\n got %v\nwant %v", flags, wantFlags)
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("-explain keys\n got %v\nwant %v", keys, wantKeys)
	}

	// A field no knob reaches is a configuration nobody can ask for from
	// the command line: either wire it or list it here, deliberately — the
	// stance canonicalKey takes for the memo key.
	internalOnly := map[string]bool{"Inject": true, "InjectName": true}
	rt := reflect.TypeOf(harness.RunConfig{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.IsExported() && !reached[f.Name] && !internalOnly[f.Name] {
			t.Errorf("RunConfig.%s is set by no knob and is not on the internal-only list", f.Name)
		}
	}
}

// FuzzOverride: an -explain side spec is an error or a configuration every
// knob's range admits, never a panic. The corpus starts from the knob
// table's in-range and refused values.
func FuzzOverride(f *testing.F) {
	for key, v := range good {
		f.Add(key + "=" + v)
		for _, b := range bad[key] {
			f.Add(key + "=" + b)
		}
	}
	for _, spec := range []string{"", "base", "mult", "bogus=1", "rate=0.25, cluster=2, latency=true",
		"aware=false, rate=0.25", "mult=1000,line=32768,gran=0", "tw=2,,engine=baton"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rc, err := Override(defaults, spec)
		if err != nil {
			return
		}
		pow2 := func(n, lo, hi int) bool { return n >= lo && n <= hi && n&(n-1) == 0 }
		switch {
		case !(rc.HeapMult > 0 && rc.HeapMult <= maxHeapMult): // false for NaN and both infinities
			t.Errorf("%q: heap multiple %v", spec, rc.HeapMult)
		case !(rc.FailureRate >= 0 && rc.FailureRate < 1):
			t.Errorf("%q: failure rate %v", spec, rc.FailureRate)
		case !pow2(rc.LineSize, 64, blockSize):
			t.Errorf("%q: line size %d", spec, rc.LineSize)
		case rc.ClusterGran != 0 && !pow2(rc.ClusterGran, 64, math.MaxInt):
			t.Errorf("%q: clustering granularity %d", spec, rc.ClusterGran)
		case min(rc.ClusterPages, rc.Iterations, rc.DynFailEvery, rc.Mutators, rc.TraceWorkers, rc.Procs, rc.PauseBudget) < 0:
			t.Errorf("%q: a negative count in %+v", spec, rc)
		case rc.Engine != "" && rc.Engine != "threaded":
			t.Errorf("%q: engine %q", spec, rc.Engine)
		case !slices.Contains([]vm.CollectorKind{vm.MarkSweep, vm.Immix, vm.StickyMarkSweep, vm.StickyImmix}, rc.Collector):
			t.Errorf("%q: collector %v", spec, rc.Collector)
		}
		if _, err := kernel.NewPlacementPolicy(rc.Placement); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
		if _, err := kernel.NewRemapPolicy(rc.Remap); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
	})
}
