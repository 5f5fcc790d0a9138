package harness

import (
	"fmt"
	"testing"

	"wearmem/internal/vm"
)

// Bounded-pause cycles never evacuate, so a long-lived churning workload
// smears live data across every block and the heap arrives at the
// allocation slow path uniformly fragmented — no wholly free block
// anywhere, which a single escalation full collection cannot fix (its
// defrag pass can only evacuate into the reserved headroom, and the
// blocks it vacates are retained as the next reserve). The VM must keep
// running full collections while defragmentation makes progress instead
// of declaring OOM after one attempt. 300 kv iterations at 2x heap
// reproduced the starvation before the retry ladder existed.
func TestPauseBudgetFragmentationRecovery(t *testing.T) {
	res := NewRunner().Run(RunConfig{
		Bench: "kv", HeapMult: 2, Collector: vm.StickyImmix,
		Iterations: 300, Seed: 42, PauseBudget: 10000,
	})
	if res.DNF {
		t.Fatalf("bounded-pause kv run DNF: %s", res.Panic)
	}
	if res.IncrementalCycles == 0 {
		t.Fatal("no incremental cycles ran — the regression scenario needs them")
	}
}

// The threaded engine's escalation ladder has the same retry loop; a
// concurrent-mark run under the same churn must not starve either.
func TestPauseBudgetFragmentationRecoveryThreaded(t *testing.T) {
	res := NewRunner().Run(RunConfig{
		Bench: "kv", HeapMult: 2, Collector: vm.StickyImmix,
		Iterations: 300, Seed: 42, PauseBudget: 10000,
		Engine: "threaded", Mutators: 2,
	})
	if res.DNF {
		t.Fatalf("concurrent-mark kv run DNF: %s", res.Panic)
	}
	if res.ConcurrentCycles == 0 {
		t.Fatal("no concurrent cycles ran — the regression scenario needs them")
	}
}

// TestMarkingFollowsPauseBudget: the pause budget is the one marking knob,
// and the marker count derives from it. A budgeted baton runtime marks in
// increments; a budgeted threaded one marks concurrently on one marker per
// trace lane, unless it writes through (line writeback snapshots would race
// the markers' header CASes), where it stays stop-the-world like every
// unbudgeted runtime.
func TestMarkingFollowsPauseBudget(t *testing.T) {
	for _, engine := range []string{"", "threaded"} {
		for _, budget := range []int{0, 10000} {
			for _, through := range []bool{false, true} {
				for _, lanes := range []int{1, 2} {
					rc := RunConfig{
						Bench: "kv", HeapMult: 4, Collector: vm.StickyImmix,
						Iterations: 300, Seed: 42, PauseBudget: budget, WriteThrough: through,
						Engine: engine, Mutators: 2, TraceWorkers: lanes,
					}
					t.Run(fmt.Sprintf("%s/budget%d/writethrough=%v/lanes%d", engineName(engine), budget, through, lanes), func(t *testing.T) {
						res := NewRunner().Run(rc)
						if res.DNF {
							t.Fatalf("run DNF: %s", res.Panic)
						}
						incremental := engine == "" && budget > 0
						concurrent := engine == "threaded" && budget > 0 && !through
						if got := res.IncrementalCycles > 0; got != incremental {
							t.Errorf("%d incremental cycles, want them: %v", res.IncrementalCycles, incremental)
						}
						if got := res.ConcurrentCycles > 0; got != concurrent {
							t.Errorf("%d concurrent cycles, want them: %v", res.ConcurrentCycles, concurrent)
						}
					})
				}
			}
		}
	}
}
