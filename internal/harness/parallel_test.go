package harness

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// stubExecute replaces the execution function with a counting stub for the
// duration of a test. The stub blocks on gate (if non-nil) so tests can
// pile goroutines onto one in-flight execution before releasing it.
func stubExecute(t *testing.T, gate chan struct{}, count *int32) {
	t.Helper()
	old := executeFn
	t.Cleanup(func() { executeFn = old })
	executeFn = func(rc RunConfig, _ *drawnMaps) Result {
		atomic.AddInt32(count, 1)
		if gate != nil {
			<-gate
		}
		return Result{Cycles: 42, Collections: 1}
	}
}

// Concurrent Runs of the same configuration must execute it exactly once;
// every caller gets the one result.
func TestSingleflightExecutesOnce(t *testing.T) {
	var count int32
	gate := make(chan struct{})
	stubExecute(t, gate, &count)

	r := NewRunner()
	rc := RunConfig{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50}
	const callers = 8
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(rc)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the callers queue on the flight
	close(gate)
	wg.Wait()

	if got := atomic.LoadInt32(&count); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
	for i, res := range results {
		if res.Cycles != 42 {
			t.Fatalf("caller %d got %+v", i, res)
		}
	}
}

// Prefetch must deduplicate its input and skip configurations already
// memoized.
func TestPrefetchDeduplicates(t *testing.T) {
	var count int32
	stubExecute(t, nil, &count)

	r := NewRunner()
	r.Workers = 4
	a := RunConfig{Bench: "pmd", HeapMult: 2, Iterations: 50}
	b := RunConfig{Bench: "xalan", HeapMult: 2, Iterations: 50}
	r.Run(a) // pre-warm one key
	r.Prefetch([]RunConfig{a, a, b, b, a, b})
	if got := atomic.LoadInt32(&count); got != 2 {
		t.Fatalf("executed %d configurations, want 2 (a, b)", got)
	}
}

// Collect's planning pass must declare every configuration the assembly
// pass will ask for, including those behind geoOver's DNF early-exit, so
// the assembly pass is served entirely from the cache.
func TestCollectAssemblyFullyCached(t *testing.T) {
	var count int32
	stubExecute(t, nil, &count)

	r := NewRunner()
	r.Workers = 4
	cfgs := []RunConfig{
		{Bench: "pmd", HeapMult: 2, Iterations: 50},
		{Bench: "xalan", HeapMult: 2, Iterations: 50},
		{Bench: "sunflow", HeapMult: 2, Iterations: 50},
	}
	base := RunConfig{Bench: "pmd", HeapMult: 3, Iterations: 50}
	rep := r.Collect(func() *Report {
		t := Table{Columns: []string{"bench", "norm"}}
		for _, rc := range cfgs {
			t.Rows = append(t.Rows, []Cell{Text(rc.Bench), fnum(r.Normalized(rc, base))})
		}
		return &Report{ID: "test", Title: "test", Tables: []Table{t}}
	})
	if got := atomic.LoadInt32(&count); got != 4 {
		t.Fatalf("executed %d configurations, want 4 (3 configs + shared baseline)", got)
	}
	if len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("assembly rows = %d, want 3", len(rep.Tables[0].Rows))
	}
}

// renderExperiment runs one experiment at the given worker count with a
// fresh runner and returns the rendered report text.
func renderExperiment(id string, workers int) string {
	r := NewRunner()
	r.QuickDivisor = 40
	o := Options{Quick: true, Seed: 7, Parallel: workers, Runner: r}
	var buf bytes.Buffer
	ByID(id).Run(o).Render(&buf)
	return buf.String()
}

// The tentpole determinism guarantee: an experiment's rendered report is
// byte-identical whether its configurations execute serially or across a
// worker pool. The default run checks a representative subset (fig3
// covers the geoOver grids, fig9b the direct-Run/DNF path, tab6 the mixed
// Run/Normalized assembly); set WEARMEM_FULL_DETERMINISM=1 (make
// determinism) to sweep every experiment in harness.All(), which runs the
// whole suite twice (~2.5 min single-core).
func TestParallelReportsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	ids := []string{"fig3", "fig9b", "tab6"}
	if os.Getenv("WEARMEM_FULL_DETERMINISM") != "" {
		ids = ids[:0]
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := renderExperiment(id, 1)
			parallel := renderExperiment(id, 8)
			if serial != parallel {
				t.Errorf("%s: -parallel 8 report differs from -parallel 1\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, parallel)
			}
		})
	}
}

// emitExperimentJSON runs one experiment at the given worker count with a
// fresh runner and returns the JSON document bytes.
func emitExperimentJSON(t *testing.T, id string, workers int) string {
	t.Helper()
	r := NewRunner()
	r.QuickDivisor = 40
	o := Options{Quick: true, Seed: 7, Parallel: workers, Runner: r}
	var buf bytes.Buffer
	if err := (jsonEmitter{}).Emit(&buf, ByID(id).Run(o)); err != nil {
		t.Fatalf("%s: json emit: %v", id, err)
	}
	return buf.String()
}

// The machine-readable side of the determinism guarantee: the JSON
// document — typed tables plus the full run-record set with per-event
// counter snapshots — is byte-identical at any worker count, because the
// record set comes from the planning pass (which runs regardless of
// workers) and every collection in the document is ordered.
func TestParallelJSONByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	for _, id := range []string{"fig3", "fig9b", "tab6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := emitExperimentJSON(t, id, 1)
			parallel := emitExperimentJSON(t, id, 8)
			if serial != parallel {
				t.Errorf("%s: -parallel 8 JSON differs from -parallel 1", id)
			}
			r := NewRunner()
			r.QuickDivisor = 40
			rep := ByID(id).Run(Options{Quick: true, Seed: 7, Parallel: 1, Runner: r})
			if len(rep.Runs) == 0 {
				t.Fatalf("%s: no run records attached", id)
			}
			for _, rec := range rep.Runs {
				if rec.Schema != SchemaVersion {
					t.Fatalf("%s: record schema %d, want %d", id, rec.Schema, SchemaVersion)
				}
				if len(rec.Result.Counters) != stats.NumEvents {
					t.Fatalf("%s: record has %d counters, want %d", id, len(rec.Result.Counters), stats.NumEvents)
				}
			}
		})
	}
}

// A configuration that crashes mid-run must surface as a failed (DNF)
// record carrying the panic, not kill the parallel sweep.
func TestPrefetchRecoversPanickingConfiguration(t *testing.T) {
	old := executeFn
	t.Cleanup(func() { executeFn = old })
	executeFn = func(rc RunConfig, _ *drawnMaps) Result {
		if rc.Bench == "xalan" {
			panic("synthetic crash in " + rc.Bench)
		}
		return Result{Cycles: 7, Collections: 1}
	}

	r := NewRunner()
	r.Workers = 4
	cfgs := []RunConfig{
		{Bench: "pmd", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50},
		{Bench: "xalan", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50},
		{Bench: "lusearch", HeapMult: 2, Collector: vm.StickyImmix, Iterations: 50},
	}
	r.Prefetch(cfgs)

	crashed := r.Run(cfgs[1])
	if !crashed.DNF {
		t.Fatal("crashed configuration not marked DNF")
	}
	if !strings.Contains(crashed.Panic, "synthetic crash in xalan") {
		t.Fatalf("panic message lost: %q", crashed.Panic)
	}
	if !strings.Contains(crashed.PanicStack, "harness") {
		t.Fatal("panic stack missing")
	}
	for _, i := range []int{0, 2} {
		if res := r.Run(cfgs[i]); res.DNF || res.Cycles != 7 {
			t.Fatalf("healthy configuration %s polluted: %+v", cfgs[i].Bench, res)
		}
	}
}
