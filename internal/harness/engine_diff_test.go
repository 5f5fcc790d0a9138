package harness

import (
	"testing"

	"wearmem/internal/vm"
)

// invariantEvents are the counters a benchmark must produce identically on
// both execution engines: pure mutator-side work, independent of when or on
// which goroutine collections ran. GC-side counters (trace, sweep, copies)
// legitimately differ — the engines collect at different points.
var invariantEvents = []string{
	"mutator.op", "alloc.bytes", "field.read", "field.write", "array.access",
}

func counterByName(res Result, name string) (uint64, bool) {
	for _, c := range res.Counters {
		if c.Event == name {
			return c.Count, true
		}
	}
	return 0, false
}

// TestEngineDifferential runs every quick-suite benchmark under the baton
// and threaded engines at 1, 2 and 4 mutators — with stop-the-world
// collections and with a tight 10K-cycle mark pause budget (incremental
// on baton, concurrent on threaded) — and asserts the engine-invariant
// outcomes match: both finish, the live-heap census (object count, bytes,
// content hash) is identical, and the invariant mutator counters agree.
// Nothing byte-level is compared — cycle counts and GC phase breakdowns
// differ legitimately across engines and marking modes.
func TestEngineDifferential(t *testing.T) {
	r := NewRunner()
	r.QuickDivisor = 10
	benches := []string{"pmd", "xalan", "sunflow", "hsqldb"}
	for _, bench := range benches {
		for _, muts := range []int{1, 2, 4} {
			for _, budget := range []int{0, 10000} {
				base := RunConfig{
					Bench:        bench,
					HeapMult:     3, // roomy: the census needs both runs to finish
					Collector:    vm.StickyImmix,
					FailureAware: true,
					Seed:         42,
					Mutators:     muts,
					PauseBudget:  budget,
				}
				baton := base
				threaded := base
				threaded.Engine = "threaded"
				threaded.TraceWorkers = muts
				a := r.Run(baton)
				b := r.Run(threaded)
				name := bench
				if a.DNF {
					t.Errorf("%s m=%d pb=%d: baton DNF: %s", name, muts, budget, a.Panic)
					continue
				}
				if b.DNF {
					t.Errorf("%s m=%d pb=%d: threaded DNF: %s", name, muts, budget, b.Panic)
					continue
				}
				if a.LiveObjects != b.LiveObjects || a.LiveBytes != b.LiveBytes {
					t.Errorf("%s m=%d pb=%d: census size diverged: baton %d objs/%d B, threaded %d objs/%d B",
						name, muts, budget, a.LiveObjects, a.LiveBytes, b.LiveObjects, b.LiveBytes)
				}
				if a.LiveHash != b.LiveHash {
					t.Errorf("%s m=%d pb=%d: census content hash diverged: baton %#x threaded %#x",
						name, muts, budget, a.LiveHash, b.LiveHash)
				}
				for _, ev := range invariantEvents {
					ca, oka := counterByName(a, ev)
					cb, okb := counterByName(b, ev)
					if !oka || !okb {
						t.Fatalf("%s m=%d pb=%d: counter %q missing (baton %v, threaded %v)", name, muts, budget, ev, oka, okb)
					}
					if ca != cb {
						t.Errorf("%s m=%d pb=%d: counter %q diverged: baton %d threaded %d", name, muts, budget, ev, ca, cb)
					}
				}
			}
		}
	}
}

// TestLiveHashPinned pins the census of three short runs at 10 % failed
// lines to the values the byte-at-a-time FNV gave them (captured at the
// parent of the change that made the hash word-wise): one whose live set is
// fixed-layout nodes, one that is mostly scalar arrays, and the kv store.
// A census that hashes differently, or a block constructor that offers
// different lines, moves them.
func TestLiveHashPinned(t *testing.T) {
	for _, tc := range []struct {
		bench          string
		iters          int
		objects, bytes int
		hash           uint64
	}{
		{"hsqldb", 300, 9659, 926264, 0x475eb547fa371f98},
		{"xalan", 200, 1256, 412088, 0x20c16bed510aa8d5},
		{"kv", 600, 3361, 583104, 0x3e4642a8a0cc707d},
	} {
		res := execute(RunConfig{
			Bench: tc.bench, HeapMult: 2, Collector: vm.StickyImmix, FailureAware: true,
			FailureRate: 0.10, Seed: 42, Iterations: tc.iters,
		})
		if res.DNF || res.LiveObjects != tc.objects || res.LiveBytes != tc.bytes || res.LiveHash != tc.hash {
			t.Errorf("%s: DNF=%v census %d/%d/%#x, pinned %d/%d/%#x", tc.bench,
				res.DNF, res.LiveObjects, res.LiveBytes, res.LiveHash, tc.objects, tc.bytes, tc.hash)
		}
	}
}
