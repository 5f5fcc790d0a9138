package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"wearmem/internal/harness"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestInStep: BENCHMARK.json is what the program's tables declare,
// inside the limits the benchmark driver sets.
func TestManifestInStep(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestJSON(); !bytes.Equal(bytes.TrimSpace(committed), want) {
		t.Errorf("BENCHMARK.json is not `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer() {
		check("per-layer", m.Name)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
}

// TestPinsCoverEveryExperiment: pins.json has one sha256 per experiment id.
func TestPinsCoverEveryExperiment(t *testing.T) {
	all := harness.All()
	if len(pins) != len(all) {
		t.Errorf("pins.json has %d entries, harness.All() %d experiments", len(pins), len(all))
	}
	for _, e := range all {
		if len(pins[e.ID]) != 64 {
			t.Errorf("pins.json: %s has no sha256", e.ID)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at 1/100 size,
// untraced and traced, and checks the result line carries exactly the
// declared metrics, all finite, and survives a JSON round trip.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runOpts{workload: w, seed: 7, scale: 0.01, trace: trace, skipLadder: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			declared := endToEnd
			if trace {
				declared = perLayer()
			}
			line := res.line()
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics on the result line, %d declared", w.name, trace, len(line.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
					continue
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s = %v %q, want a finite number of %s", w.name, trace, m.Name, v.Value, v.Unit, m.Unit)
				}
				if !trace && m.Name != "sim_cycles" && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, m.Name, v.Value)
				}
			}
			data, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			var back resultLine
			if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, line) {
				t.Errorf("%s trace=%v: result line does not round-trip (%v)", w.name, trace, err)
			}
		}
	}
}

// TestHostProbe: the chase is one cycle through every slot (a shorter cycle
// would fit in cache and read the wrong thing), a reading is a positive
// number of nanoseconds, and a time taken between two reference readings is
// reported unchanged.
func TestHostProbe(t *testing.T) {
	p, err := newHostProbe(0.001)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	slots := len(p.mem) / 4
	at, steps := uint32(0), 0
	for {
		at = binary.LittleEndian.Uint32(p.mem[4*at:])
		steps++
		if at == 0 || steps > slots {
			break
		}
	}
	if steps != slots {
		t.Errorf("the chase returns to its start after %d steps, want all %d slots", steps, slots)
	}
	if ns := p.loadNS(); !(ns > 0) || math.IsInf(ns, 0) {
		t.Errorf("reading = %v ns per load", ns)
	}
	if got := atReference(2, refLoadNS, refLoadNS); got != 2 {
		t.Errorf("2 s between two reference readings reported as %v s", got)
	}
	if got := atReference(2, 2*refLoadNS, 2*refLoadNS); got != 1 {
		t.Errorf("2 s on a host half as fast reported as %v s, want 1", got)
	}
}

// TestEveryLadderRungReports runs the ladder at 1/100 size.
func TestEveryLadderRungReports(t *testing.T) {
	got := runLadder(nil, 0.01)
	want := 0
	for _, r := range ladder {
		want++
		if ns := got["ladder."+r.name+".ns"]; !(ns > 0) || math.IsInf(ns, 0) {
			t.Errorf("ladder.%s.ns = %v", r.name, ns)
		}
		if r.cycles {
			want++
			if c, ok := got["ladder."+r.name+".cycles"]; !ok || !(c > 0) {
				t.Errorf("ladder.%s.cycles = %v, the clock charged nothing", r.name, c)
			}
		}
	}
	if len(got) != want {
		t.Errorf("ladder produced %d metrics, %d declared", len(got), want)
	}
}

// synthetic builds a ledger with one baton and one threaded workload.
func synthetic(opsPerS, simCycles, threadedSim, failRatio float64) *ledger {
	samples := func(v float64) sample {
		return sample{Value: v, Unit: "x", Samples: []float64{v * 0.99, v, v * 1.01}}
	}
	wl := func(sim float64) *workloadResult {
		return &workloadResult{Correct: true, EndToEnd: map[string]sample{
			"wall_s": samples(1), "ops_per_s": samples(opsPerS),
			"sim_cycles": {Value: sim, Samples: []float64{sim, sim, sim}},
			"fail_ratio": {Value: failRatio, Samples: []float64{failRatio}},
		}}
	}
	return &ledger{Workloads: map[string]*workloadResult{"kv-read": wl(simCycles), "kv-threaded": wl(threadedSim)}}
}

// TestCompareFlagsRegressions feeds synthetic result sets through the
// comparison: a throughput drop beyond the bound, a one-cycle change on a
// baton workload and a fail_ratio rise are flagged; a wobble inside the
// bound, and a small simulated drift on the threaded workload, are not.
func TestCompareFlagsRegressions(t *testing.T) {
	var opsBound float64
	for _, m := range endToEnd {
		if m.Name == "ops_per_s" {
			opsBound = m.Bound
		}
	}
	base := synthetic(1000, 5000, 5000, 0)
	verdicts := func(next *ledger) map[string]verdict {
		m := map[string]verdict{}
		for _, c := range compare(base, next) {
			m[c.Workload+"/"+c.Metric] = c.Verdict
		}
		return m
	}
	cases := []struct {
		name string
		next *ledger
		key  string
		want verdict
	}{
		{"throughput drop beyond the bound", synthetic(1000*(1-opsBound-0.02), 5000, 5000, 0), "kv-read/ops_per_s", regressed},
		{"wobble inside the bound", synthetic(1000*(1-0.4*opsBound), 5000, 5000, 0), "kv-read/ops_per_s", within},
		{"one cycle on a baton workload", synthetic(1000, 5001, 5000, 0), "kv-read/sim_cycles", regressed},
		{"one cycle fewer on a baton workload", synthetic(1000, 4999, 5000, 0), "kv-read/sim_cycles", improved},
		{"1% simulated drift on the threaded workload", synthetic(1000, 5000, 5050, 0), "kv-threaded/sim_cycles", within},
		{"5% simulated drift on the threaded workload", synthetic(1000, 5000, 5250, 0), "kv-threaded/sim_cycles", regressed},
		{"fail_ratio rise", synthetic(1000, 5000, 5000, 0.001), "kv-read/fail_ratio", regressed},
	}
	for _, c := range cases {
		if got := verdicts(c.next)[c.key]; got != c.want {
			t.Errorf("%s: %s judged %q, want %q", c.name, c.key, got, c.want)
		}
	}
	for key, v := range verdicts(synthetic(1000, 5000, 5000, 0)) {
		if v != within {
			t.Errorf("identical ledgers: %s judged %q", key, v)
		}
	}

	// A metric whose own spread exceeds the bound is unresolved, not
	// unchanged — unless every new sample beats every base sample.
	noisy := synthetic(1000, 5000, 5000, 0)
	noisy.Workloads["kv-read"].EndToEnd["ops_per_s"] = sample{Value: 990, Samples: []float64{600, 990, 1400}}
	if got := verdicts(noisy)["kv-read/ops_per_s"]; got != unresolved {
		t.Errorf("spread wider than the bound judged %q, want unresolved", got)
	}

	// The command line agrees with the function, and exits non-zero.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, synthetic(1000, 5001, 5000, 0)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-compare", a, b}, &out, &out); code != 1 || !strings.Contains(out.String(), string(regressed)) {
		t.Errorf("bench -compare exit %d, output:\n%s", code, out.String())
	}
	if code := run([]string{"-compare", a, a}, &out, &out); code != 0 {
		t.Errorf("bench -compare of a ledger with itself exit %d", code)
	}

	// Ledgers of different seeds ran different inputs: the exact rules
	// would call that a regression, so the comparison is refused.
	other := synthetic(1000, 5000, 5000, 0)
	other.Seed = base.Seed + 1
	if err := writeJSON(b, other); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-compare", a, b}, &out, &out); code != 1 || !strings.Contains(out.String(), "seed") {
		t.Errorf("bench -compare across seeds exit %d, output:\n%s", code, out.String())
	}
}

// TestWorkloadFlagTakesOneName: -workload is a name or all, not a list.
func TestWorkloadFlagTakesOneName(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-workload", "figs,wearout"}, &out, &out); code != 1 || !strings.Contains(out.String(), "unknown workload") {
		t.Errorf("bench -workload figs,wearout exit %d, output:\n%s", code, out.String())
	}
}

// TestQuartilesMatchPython pins the spread rule to the one the acceptance
// procedure is written in (statistics.quantiles(v, n=4)).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
