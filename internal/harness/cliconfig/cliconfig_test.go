package cliconfig

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wearmem/internal/harness"
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

// The knob table is the only declaration of a run knob. This walks it: the
// flags and -explain keys are exactly the ones the CLI has always taken,
// every spelling of a knob sets the same field to the same value, every
// out-of-range value is refused on both routes, and no RunConfig field is
// out of reach.
func TestKnobTable(t *testing.T) {
	// One in-range value per knob, and the values each must refuse.
	good := map[string]string{
		"bench": "kv", "mult": "2.5", "rate": "0.1", "aware": "true", "cluster": "2",
		"gran": "1024", "line": "128", "collector": "S-MS", "nocomp": "true", "seed": "9",
		"iters": "77", "dynfail": "3", "mutators": "4", "tw": "2", "engine": "threaded",
		"procs": "2", "wall": "true", "latency": "true", "writethrough": "true",
		"pause-budget": "10000", "concurrent-mark": "2", "placement": "rotate", "remap": "decoder",
	}
	bad := map[string][]string{
		"rate": {"1", "1.5", "-0.1", "NaN", "x"}, "mult": {"0", "-1", "NaN"},
		"line": {"0", "32", "100", "65536"}, "gran": {"32", "100"},
		"cluster": {"-1"}, "iters": {"-1"}, "dynfail": {"-1"}, "mutators": {"-1"}, "tw": {"-1"},
		"procs": {"-1"}, "pause-budget": {"-1"}, "concurrent-mark": {"-1", "two"},
		"collector": {"ZGC"}, "engine": {"warp"}, "placement": {"bogus"}, "remap": {"bogus"},
		"wall": {"maybe"}, "seed": {"1.5"},
	}

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

		// Every spelling, from the same start, ends at the same configuration.
		want, _ = Override(defaults, k.name+"="+v)
		for _, key := range append([]string{k.name}, k.aliases...) {
			keys = append(keys, key)
			if got, err := Override(defaults, key+"="+v); err != nil || got != want {
				t.Errorf("override %s=%s: %+v (%v), want %+v", key, v, got, err, want)
			}
			for _, b := range bad[k.name] {
				if _, err := Override(defaults, key+"="+b); err == nil {
					t.Errorf("override %s=%s accepted", key, b)
				}
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

	// None added, none dropped: these are the spellings wearbench accepted
	// before the table existed.
	sort.Strings(flags)
	sort.Strings(keys)
	wantFlags := strings.Fields("bench cluster collector concurrent-mark dynfail engine iters latency line " +
		"mult mutators pause-budget placement procs rate remap seed tw wall writethrough")
	wantKeys := strings.Fields("aware bench cluster collector concmark concurrent-mark dynfail engine gran iters " +
		"latency line mult mutators nocomp pause-budget pausebudget placement procs rate remap seed " +
		"traceworkers tw wall writethrough")
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
