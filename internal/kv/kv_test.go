package kv_test

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"wearmem/internal/kernel"
	"wearmem/internal/kv"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// runKV executes the named kv profile on a fresh VM and returns the
// simulated end time and the latency report.
func runKV(t *testing.T, name string, mutators, iterations int, threaded bool) (stats.Cycles, *stats.LatencyReport) {
	t.Helper()
	p := workload.ByName(name)
	if p == nil {
		t.Fatalf("profile %q not registered", name)
	}
	clock := stats.NewClock(stats.DefaultCosts())
	heapBytes := 2 * p.MinHeap()
	poolPages := heapBytes/(4<<10)*2 + 64
	kern := kernel.New(kernel.Config{PCMPages: poolPages, Clock: clock})
	v := vm.New(vm.Config{
		HeapBytes: heapBytes,
		Collector: vm.StickyImmix,
		Kernel:    kern,
		Clock:     clock,
		Threaded:  threaded,
	})
	rec := stats.NewLatencyRecorder(mutators)
	p.Latency = rec.Shard
	if err := p.RunMutators(v, iterations, mutators); err != nil {
		t.Fatalf("kv run failed: %v", err)
	}
	return clock.Now(), rec.Report()
}

func TestKVRegisteredAndValid(t *testing.T) {
	p := workload.ByName("kv")
	if p == nil {
		t.Fatal("default kv profile not registered")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Body == nil || p.Prepare == nil {
		t.Fatal("kv must be a scenario profile")
	}
}

func TestKVBatonDeterministic(t *testing.T) {
	for _, muts := range []int{1, 3} {
		t1, r1 := runKV(t, "kv", muts, 40, false)
		t2, r2 := runKV(t, "kv", muts, 40, false)
		if t1 != t2 {
			t.Errorf("mutators=%d: cycles differ across identical runs: %d vs %d", muts, t1, t2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("mutators=%d: latency reports differ across identical runs", muts)
		}
		if r1.Ops != uint64(40*128) {
			t.Errorf("mutators=%d: recorded %d ops, want %d", muts, r1.Ops, 40*128)
		}
		if r1.Overall.P50 == 0 || r1.Overall.Max < r1.Overall.P999 || r1.Overall.P999 < r1.Overall.P50 {
			t.Errorf("mutators=%d: implausible quantiles %+v", muts, r1.Overall)
		}
	}
}

func TestKVGCPauseAttribution(t *testing.T) {
	// A standard-length run must trigger collections, and the ops that
	// absorbed them must show up in the GC-pause class.
	_, r := runKV(t, "kv", 2, 150, false)
	if r.GCPause.Ops == 0 {
		t.Fatal("no operations attributed a GC pause; scenario not churning enough")
	}
	if r.GCPauseCycles == 0 || r.Overall.Max < r.GCPause.Max {
		t.Fatalf("inconsistent attribution: %+v", r)
	}
}

func TestKVThreadedEngine(t *testing.T) {
	_, r := runKV(t, "kv", 4, 60, true)
	if r.Ops != uint64(60*128) {
		t.Fatalf("threaded run recorded %d ops, want %d", r.Ops, 60*128)
	}
	if r.Overall.P50 == 0 {
		t.Fatal("threaded run recorded no latency")
	}
}

func TestKVKnobbedConfigRegisters(t *testing.T) {
	name, err := kv.Register(kv.Config{Keys: 1024, ReadRatio: 0.9, Contention: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if name == "kv" {
		t.Fatal("knobbed config must not alias the default name")
	}
	// Idempotent re-registration.
	again, err := kv.Register(kv.Config{Keys: 1024, ReadRatio: 0.9, Contention: 0.5})
	if err != nil || again != name {
		t.Fatalf("re-register: %q, %v", again, err)
	}
	if workload.ByName(name) == nil {
		t.Fatalf("knobbed profile %q not resolvable", name)
	}
	_, r := runKV(t, name, 2, 30, false)
	if r.Ops == 0 {
		t.Fatal("knobbed config recorded no ops")
	}
}

func TestKVConfigValidation(t *testing.T) {
	bad := []kv.Config{
		{Keys: 8},
		{ReadRatio: 1.5},
		{ValueMin: 128, ValueMax: 64},
		{Zipf: -1},
		{Zipf: math.NaN()},
		{Contention: -0.1},
		{Phases: -1},
	}
	// A size range wider than a value size draw reaches (2³¹−1 sizes) needs
	// an int wider than 32 bits.
	if strconv.IntSize == 64 {
		bad = append(bad, kv.Config{ValueMin: 8, ValueMax: math.MaxInt})
	}
	for _, c := range bad {
		if _, err := kv.Register(c); err == nil {
			t.Errorf("config %+v must not validate", c)
		}
	}
}
