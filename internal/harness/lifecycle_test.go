package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"wearmem/internal/heap"
	"wearmem/internal/vm"
)

// adoptParked empties heap's free list (each NewSpace takes one backing
// off it): the next run then starts on a fresh backing, as the first run
// of a process does.
func adoptParked() {
	for heap.Parked() > 0 {
		heap.NewSpace()
	}
}

// TestRecycledSpaceDoesNotChangeResults: the address space a run adopts —
// none, one a smaller run left, one a larger run left — must not show in
// anything the run reports. One threaded mutator is deterministic and is
// compared whole; two are not, and are compared on what the engine
// differential compares, in the roomy heap it uses (at twice the minimum
// a threaded pair runs out of memory on a few schedules in a hundred).
func TestRecycledSpaceDoesNotChangeResults(t *testing.T) {
	t.Cleanup(adoptParked)
	for _, tc := range []struct {
		engine   string
		mutators int
		heapMult float64
		whole    bool
	}{
		{"baton", 1, 2, true},
		{"baton", 2, 2, true},
		{"threaded", 1, 2, true},
		{"threaded", 2, 3, false},
	} {
		t.Run(fmt.Sprintf("%s/m%d", tc.engine, tc.mutators), func(t *testing.T) {
			rc := RunConfig{
				Bench: "pmd", HeapMult: tc.heapMult, Collector: vm.StickyImmix, FailureAware: true,
				FailureRate: 0.25, Seed: 42, Iterations: 300,
				Mutators: tc.mutators, TraceWorkers: 1, Engine: tc.engine,
			}
			smaller, larger := rc, rc
			smaller.Bench, smaller.Iterations = "avrora", 100
			larger.Bench, larger.HeapMult = "eclipse", 4

			adoptParked()
			fresh := execute(rc, new(drawnMaps))
			if fresh.DNF || fresh.Collections < 2 || fresh.LiveHash == 0 {
				t.Fatalf("fresh run is no test of the heap: %+v", fresh)
			}
			for _, before := range []RunConfig{smaller, larger} {
				adoptParked()
				if res := execute(before, new(drawnMaps)); res.DNF {
					t.Fatalf("%s before the run under test: DNF %s", before.Bench, res.Panic)
				}
				if heap.Parked() != 1 {
					t.Fatalf("Parked() = %d after %s, want its one backing", heap.Parked(), before.Bench)
				}
				got := execute(rc, new(drawnMaps))
				if tc.whole {
					if !reflect.DeepEqual(got, fresh) {
						t.Errorf("after %s: result differs from the fresh run\n got %+v\nwant %+v", before.Bench, got, fresh)
					}
					continue
				}
				if got.DNF || got.LiveObjects != fresh.LiveObjects || got.LiveBytes != fresh.LiveBytes || got.LiveHash != fresh.LiveHash {
					t.Errorf("after %s: census %d/%d/%#x, fresh %d/%d/%#x", before.Bench,
						got.LiveObjects, got.LiveBytes, got.LiveHash, fresh.LiveObjects, fresh.LiveBytes, fresh.LiveHash)
				}
				for _, ev := range invariantEvents {
					a, _ := counterByName(got, ev)
					b, _ := counterByName(fresh, ev)
					if a != b {
						t.Errorf("after %s: counter %q is %d, fresh %d", before.Bench, ev, a, b)
					}
				}
			}
		})
	}
}

// TestRecycledSpacesParallel is the determinism check of
// TestParallelReportsDeterministic with the free list watched: eight
// workers park and adopt concurrently (under -race via make
// race-threaded), the list never holds more backings than there are
// workers, and the report still matches the serial one.
func TestRecycledSpacesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment twice")
	}
	t.Cleanup(adoptParked)
	adoptParked()
	const workers = 8
	var most atomic.Int64
	old := executeFn
	t.Cleanup(func() { executeFn = old })
	executeFn = func(rc RunConfig, maps *drawnMaps) Result {
		res := old(rc, maps)
		for n := int64(heap.Parked()); ; {
			if m := most.Load(); n <= m || most.CompareAndSwap(m, n) {
				return res
			}
		}
	}
	serial := renderExperiment("fig9b", 1, 1)
	parallel := renderExperiment("fig9b", 1, workers)
	if serial != parallel {
		t.Errorf("-parallel %d report differs from -parallel 1 with recycled spaces", workers)
	}
	if m := most.Load(); m < 1 || m > workers {
		t.Errorf("free list peaked at %d backings, want 1..%d", m, workers)
	}
}

// panicAfter is a GC-trace sink that panics on its nth line: the trace is
// written at a collection trigger, inside the run, on the goroutine that
// is about to collect.
type panicAfter struct{ lines int }

func (w *panicAfter) Write(p []byte) (int, error) {
	if w.lines--; w.lines == 0 {
		panic(errors.New("synthetic crash at a collection trigger"))
	}
	return len(p), nil
}

// TestRecyclingSurvivesPanickingRun: a run that panics at its
// second collection is closed exactly once on the way out — the baton
// engine parks its one backing, the threaded engine (whose batch did not
// join) parks nothing — and the run after it reports what it reports in a
// fresh process.
func TestRecyclingSurvivesPanickingRun(t *testing.T) {
	t.Cleanup(adoptParked)
	for _, tc := range []struct {
		engine string
		parked int
	}{{"baton", 1}, {"threaded", 0}} {
		t.Run(tc.engine, func(t *testing.T) {
			crash := RunConfig{
				Bench: "xalan", HeapMult: 2, Collector: vm.StickyImmix, FailureAware: true,
				FailureRate: 0.25, Seed: 42, Iterations: 300, TraceWorkers: 1, Engine: tc.engine,
			}
			next := crash
			next.Bench = "pmd"

			adoptParked()
			fresh := execute(next, new(drawnMaps))
			adoptParked()

			vm.SetGCTrace(&panicAfter{lines: 2})
			res := safeExecute(crash, new(drawnMaps))
			vm.SetGCTrace(nil)
			if !res.DNF || !strings.Contains(res.Panic, "synthetic crash") {
				t.Fatalf("run did not crash where planted: %+v", res)
			}
			if heap.Parked() != tc.parked {
				t.Fatalf("Parked() = %d after the crashed run, want %d", heap.Parked(), tc.parked)
			}
			if got := safeExecute(next, new(drawnMaps)); !reflect.DeepEqual(got, fresh) {
				t.Errorf("run after the crash differs from its fresh value\n got %+v\nwant %+v", got, fresh)
			}
			if heap.Parked() != 1 {
				t.Fatalf("Parked() = %d after the following run, want 1", heap.Parked())
			}
		})
	}
}

// BenchmarkExecuteQuickBackToBack is twenty small runs through one Runner,
// the shape of a figure's sweep. B/op is the number to watch: a run that
// stops adopting its predecessor's address space shows up as its heap
// allocated, zeroed and grown again per run.
func BenchmarkExecuteQuickBackToBack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner()
		r.QuickDivisor = 40
		for seed := int64(0); seed < 20; seed++ {
			res := r.Run(RunConfig{
				Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, FailureAware: true,
				FailureRate: 0.1, Seed: seed,
			})
			if res.DNF {
				b.Fatalf("seed %d: DNF %s", seed, res.Panic)
			}
		}
	}
}
