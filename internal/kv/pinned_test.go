package kv_test

import (
	"testing"

	"wearmem/internal/harness"
	"wearmem/internal/kv"
	"wearmem/internal/stats"
	"wearmem/internal/vm"
)

// pinnedRun is what a baton run of a kv scenario must keep: the simulated
// end time, the collections, the request tail and the live heap's census
// hash. Every one of them follows from the keys, value sizes and read/write
// choices the request stream draws.
type pinnedRun struct {
	cycles      stats.Cycles
	collections int
	p99, p999   stats.Cycles
	liveHash    uint64
}

// TestScenarioPinned pins five scenarios at 2 and 4 baton mutators: the
// default, the ledger's kv-read mix (95 % reads at skew 0.987), values up
// to one Immix line, seven phases, and eight phases of 64-operation
// iterations. The
// values were taken before drawing a request moved off math/rand and
// sort.SearchFloat64s, so they hold the new draw to the old one request by
// request.
func TestScenarioPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  kv.Config
		want [2]pinnedRun // 2 and 4 mutators
	}{
		{kv.Config{}, [2]pinnedRun{
			{22376441, 29, 559, 3455, 0x1e24250591126d},
			{20368755, 25, 559, 1087, 0x77e68bb6cbaf1168},
		}},
		{kv.Config{ReadRatio: 0.95, Zipf: 0.987}, [2]pinnedRun{
			{14110304, 14, 559, 879, 0xadd70cbad2fe8a45},
			{14213556, 18, 559, 879, 0x6ccad89323c4968a},
		}},
		{kv.Config{ValueMax: 256}, [2]pinnedRun{
			{12542864, 18, 295, 575, 0xce1628efa6913e2a},
			{12110784, 18, 295, 591, 0x24449619debc4795},
		}},
		// Seven phases do not divide a mutator's operations: the last one
		// or two are an eighth phase, which wraps to the first hot region.
		{kv.Config{Phases: 7}, [2]pinnedRun{
			{20263903, 22, 559, 943, 0xcacd07a7d3381681},
			{19437521, 25, 559, 1007, 0x94be560f9b640d24},
		}},
		{kv.Config{Phases: 8, OpsPerIter: 64}, [2]pinnedRun{
			{10506202, 11, 559, 3583, 0x9a8f348e52f3f333},
			{10329566, 12, 559, 3583, 0x62e9113f3c45749d},
		}},
	} {
		name := kv.MustRegister(tc.cfg)
		for i, muts := range []int{2, 4} {
			res := harness.NewRunner().Run(harness.RunConfig{
				Bench: name, HeapMult: 2, Collector: vm.StickyImmix, FailureAware: true,
				Latency: true, Seed: 42, Mutators: muts, Iterations: 800,
			})
			if res.DNF || res.Latency == nil {
				t.Fatalf("%s at %d mutators: DNF=%v, latency %v", name, muts, res.DNF, res.Latency)
			}
			got := pinnedRun{res.Cycles, res.Collections, res.Latency.Overall.P99, res.Latency.Overall.P999, res.LiveHash}
			if got != tc.want[i] {
				t.Errorf("%s at %d mutators: %+v, pinned %+v", name, muts, got, tc.want[i])
			}
		}
	}
}
