// Package cliconfig is the single source of truth for mapping command-line
// flags and -explain overrides onto harness run configurations: one table
// row per knob, so a new RunConfig field is wired in exactly one place and
// its flag, its override key, its default and its validation cannot drift
// apart.
package cliconfig

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"wearmem/internal/harness"
	"wearmem/internal/kernel"
	"wearmem/internal/vm"
)

// config is the structure every knob sets a field of.
type config = harness.RunConfig

// knob is one settable field of a run configuration.
type knob struct {
	name   string // the flag, and the -explain key
	usage  string // flag help; a knob without any is an -explain key only
	toggle bool   // a boolean flag: present means true
	// set parses and range-checks v and stores it; out-of-range values are
	// rejected here, once, for flags and overrides alike.
	set func(c *config, v string) error
}

// defaults is what Register starts a configuration from: the paper's S-IX
// at twice the minimum heap on one mutator.
var defaults = config{HeapMult: 2, LineSize: 256, Collector: vm.StickyImmix, Seed: 1, Mutators: 1}

// blockSize is the Immix block a line size must divide (core.Config's
// default, which no run configuration changes).
const blockSize = 32 << 10

// maxHeapMult caps the heap multiple: the pool a run maps grows with it, and
// a thousand minimum heaps is already far past every experiment's axis.
const maxHeapMult = 1000

var knobs = []knob{
	{name: "bench", usage: "single benchmark to run",
		set: func(c *config, v string) error {
			c.Bench = v
			return nil
		}},
	{name: "mult", usage: fmt.Sprintf("heap size as multiple of minimum, above 0 and at most %d (default 2)", maxHeapMult),
		set: func(c *config, v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil && !(f > 0 && f <= maxHeapMult) {
				err = fmt.Errorf("heap multiple %v outside (0, %d]", f, maxHeapMult)
			}
			c.HeapMult = f
			return err
		}},
	{name: "rate", usage: "line failure rate in [0, 1); above 0 the collector is failure-aware",
		set: func(c *config, v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil && !(f >= 0 && f < 1) {
				err = fmt.Errorf("failure rate %v outside [0, 1)", f)
			}
			c.FailureRate, c.FailureAware = f, f > 0
			return err
		}},
	{name: "aware",
		set: truth(func(c *config) *bool { return &c.FailureAware })},
	{name: "cluster", usage: "clustering region pages (0 = none)",
		set: count(func(c *config) *int { return &c.ClusterPages })},
	{name: "gran",
		set: func(c *config, v string) (err error) {
			c.ClusterGran, err = lineMultiple(v, true)
			return err
		}},
	{name: "line", usage: "Immix line size: a power of two from 64 to the 32 KB block (default 256)",
		set: func(c *config, v string) (err error) {
			if c.LineSize, err = lineMultiple(v, false); err == nil && c.LineSize > blockSize {
				err = fmt.Errorf("line size %d does not divide the %d-byte block", c.LineSize, blockSize)
			}
			return err
		}},
	{name: "collector", usage: "collector: MS, IX, S-MS, S-IX (default S-IX)",
		set: func(c *config, v string) error {
			for _, k := range []vm.CollectorKind{vm.MarkSweep, vm.Immix, vm.StickyMarkSweep, vm.StickyImmix} {
				if k.String() == v {
					c.Collector = k
					return nil
				}
			}
			return fmt.Errorf("unknown collector %q (want MS, IX, S-MS, or S-IX)", v)
		}},
	{name: "nocomp",
		set: truth(func(c *config) *bool { return &c.NoCompensate })},
	{name: "seed", usage: "failure-map seed (default 1)",
		set: func(c *config, v string) (err error) {
			c.Seed, err = strconv.ParseInt(v, 10, 64)
			return err
		}},
	{name: "iters", usage: "iteration override (0 = benchmark default)",
		set: count(func(c *config) *int { return &c.Iterations })},
	{name: "dynfail", usage: "inject a dynamic line failure every N iterations (0 = off)",
		set: count(func(c *config) *int { return &c.DynFailEvery })},
	{name: "mutators", usage: "mutator contexts driven by the deterministic scheduler (default 1)",
		set: count(func(c *config) *int { return &c.Mutators })},
	{name: "tw", usage: "parallel trace lanes (0 = one per mutator when -mutators > 1)",
		set: count(func(c *config) *int { return &c.TraceWorkers })},
	{name: "engine", usage: "execution engine: baton (default, deterministic) or threaded",
		set: func(c *config, v string) error {
			// The empty string is the canonical name of the default engine, so
			// memo keys and goldens treat "baton" and no flag identically.
			switch v {
			case "", "baton":
				c.Engine = ""
			case "threaded":
				c.Engine = v
			default:
				return fmt.Errorf("unknown engine %q (want baton or threaded)", v)
			}
			return nil
		}},
	{name: "procs", usage: "GOMAXPROCS pin for threaded runs (0 = inherit)",
		set: count(func(c *config) *int { return &c.Procs })},
	{name: "wall", toggle: true, usage: "record host wall-clock time per run and per GC phase",
		set: truth(func(c *config) *bool { return &c.RecordWall })},
	{name: "latency", toggle: true,
		usage: "capture per-operation latency quantiles (scenario benchmarks, e.g. kv)",
		set:   truth(func(c *config) *bool { return &c.Latency })},
	{name: "writethrough", toggle: true, usage: "back the heap pool with a live wearing PCM device",
		set: truth(func(c *config) *bool { return &c.WriteThrough })},
	{name: "pause-budget",
		usage: "bound each GC marking pause to N simulated cycles (0 = stop-the-world; requires S-IX; threaded: one concurrent marker per trace lane)",
		set:   count(func(c *config) *int { return &c.PauseBudget })},
	{name: "policy", usage: "kernel frame policy: paper, rotate, decoder, migrate (empty = paper)",
		set: func(c *config, v string) error {
			_, err := kernel.NewPolicy(v)
			c.Policy = v
			return err
		}},
}

// count is the setter of a knob that counts something: an integer that may
// not be negative, stored in the field dst picks.
func count(dst func(*config) *int) func(*config, string) error {
	return func(c *config, v string) error {
		n, err := strconv.Atoi(v)
		if err == nil && n < 0 {
			err = fmt.Errorf("%d is negative", n)
		}
		*dst(c) = n
		return err
	}
}

// truth is the setter of an on/off knob.
func truth(dst func(*config) *bool) func(*config, string) error {
	return func(c *config, v string) (err error) {
		*dst(c), err = strconv.ParseBool(v)
		return err
	}
}

// lineMultiple parses a size in bytes that must be a power of two no smaller
// than the 64-byte PCM line; zero passes when zeroOK (a knob it switches off).
func lineMultiple(v string, zeroOK bool) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && !(n == 0 && zeroOK) && (n < 64 || n&(n-1) != 0) {
		err = fmt.Errorf("%d is not a power of two of at least 64 bytes", n)
	}
	return n, err
}

// Register sets rc to the default configuration and binds every knob that
// has a flag spelling to fs, so parsing fs fills rc in; a value out of a
// knob's range fails the parse with a message naming the flag.
func Register(fs *flag.FlagSet, rc *config) {
	*rc = defaults
	for _, k := range knobs {
		bind := fs.Func
		switch {
		case k.usage == "":
			continue
		case k.toggle:
			bind = fs.BoolFunc
		}
		bind(k.name, k.usage, func(v string) error { return k.set(rc, v) })
	}
}

// knobFor resolves an -explain key to its knob.
func knobFor(key string) *knob {
	for i, k := range knobs {
		if k.name == key {
			return &knobs[i]
		}
	}
	return nil
}

// Override applies "key=value" overrides to a base configuration — the
// -explain side syntax ("base" or an empty side keeps the base
// unchanged). Failure awareness follows the failure rate unless pinned
// explicitly with aware=, wherever in the list that stands.
func Override(base config, spec string) (config, error) {
	rc := base
	pinned, aware := false, false
	spec = strings.TrimSpace(spec)
	if spec != "" && spec != "base" {
		for _, kv := range strings.Split(spec, ",") {
			kv = strings.TrimSpace(kv)
			key, v, ok := strings.Cut(kv, "=")
			if !ok {
				return rc, fmt.Errorf("bad override %q (want key=value)", kv)
			}
			k := knobFor(key)
			if k == nil {
				return rc, fmt.Errorf("override %q: unknown override key %q", kv, key)
			}
			if err := k.set(&rc, v); err != nil {
				return rc, fmt.Errorf("override %q: %w", kv, err)
			}
			if k.name == "aware" {
				pinned, aware = true, rc.FailureAware
			}
		}
	}
	if rc.FailureAware = rc.FailureRate > 0; pinned {
		rc.FailureAware = aware
	}
	return rc, nil
}
