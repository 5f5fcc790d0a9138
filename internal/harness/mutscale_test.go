package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wearmem/internal/vm"
)

func mutCfg(mutators int) RunConfig {
	return RunConfig{Bench: "pmd", HeapMult: 3, Collector: vm.StickyImmix,
		FailureAware: true, FailureRate: 0.25, ClusterPages: 2, Seed: 7,
		Mutators: mutators}
}

// A configuration with Mutators: 1 gives the identical result to the same
// configuration with the field unset (they memoize under different keys,
// so this really runs twice).
func TestMutatorsOneMatchesSerial(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 10
	serial := mutCfg(0)
	one := mutCfg(1)
	a, b := r.Run(serial), r.Run(one)
	if a.DNF || b.DNF {
		t.Fatalf("DNF: serial %v, one %v", a.DNF, b.DNF)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Mutators:1 diverged from the serial path:\n%+v\n%+v", a, b)
	}
}

// Two independent runners executing the same 8-mutator configuration must
// produce identical results down to the full counter snapshot — the
// scheduler and the parallel trace are deterministic end to end.
func TestMutatorsEightDeterministic(t *testing.T) {
	res := make([]Result, 2)
	for i := range res {
		r := NewRunner()
		r.QuickDivisor = 10
		res[i] = r.Run(mutCfg(8))
		if res[i].DNF {
			t.Fatalf("run %d DNF: %s", i, res[i].Panic)
		}
	}
	aj, _ := json.Marshal(res[0])
	bj, _ := json.Marshal(res[1])
	if !bytes.Equal(aj, bj) {
		t.Fatalf("identical 8-mutator runs diverge:\n%s\n%s", aj, bj)
	}
	if res[0].ParallelTraces == 0 {
		t.Fatal("8-mutator run never traced in parallel")
	}
	if res[0].TraceCritCycles >= res[0].TraceWorkCycles {
		t.Fatalf("critical path %d not below total work %d",
			res[0].TraceCritCycles, res[0].TraceWorkCycles)
	}
}

// The mutscale experiment renders identically at any worker count, like
// every other experiment, and is reachable by id without being part of the
// "all" set the golden reports pin.
func TestMutScaleDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config experiment")
	}
	render := func(workers int) []byte {
		rep := ByID("mutscale").Run(Options{Quick: true, Seed: 1, Parallel: workers})
		var buf bytes.Buffer
		rep.Render(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("mutscale differs across worker counts:\n%s\n%s", serial, parallel)
	}
	if ByID("mutscale") == nil {
		t.Fatal("mutscale not reachable by id")
	}
	for _, e := range All() {
		if e.ID == "mutscale" {
			t.Fatal("mutscale leaked into All(): the pinned full-suite reports would change")
		}
	}
}
