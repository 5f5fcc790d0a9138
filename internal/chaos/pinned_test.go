package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestTortureRecordsPinned is the torture suite's cross-commit oracle. The
// other tests only say pass or fail; this one holds the baton campaigns'
// whole records — configuration, seed, schedule, every fired effect with
// its address, collection and verification counts — to the sha256 taken
// at the commit before the three torture workloads became one. A hash
// that moves means the workload, the injector or the collector changed
// what a campaign does, not just how the code reads. Threaded campaigns
// are schedule-dependent and are not pinned.
func TestTortureRecordsPinned(t *testing.T) {
	split := func(cfgs []TortureConfig, k int) []TortureConfig {
		out := append([]TortureConfig(nil), cfgs...)
		for i := range out {
			out[i].Mutators = k
		}
		return out
	}
	sweeps := []struct {
		name string
		cfgs []TortureConfig
		want string
	}{
		{"serial", AllConfigs(), "e20ada68f63757d87870068a49b571de9c6e119e2117f35f9bdab6600a7cdbb1"},
		{"m4", split(AllConfigs(), 4), "98d26abd540e50325ed9b9ac2a428d4f437262b514221ae2297b2014ac54a85c"},
		{"inc10000", WithPauseBudget(AllConfigs(), 10000), "8da3c91a5b5bfbeb8ceeb2d205bd163bd2c830c0a0d814ac512958414757650e"},
	}
	for _, sw := range sweeps {
		sum := Run(Options{Seeds: 4, Configs: sw.cfgs})
		for _, r := range sum.Failures() {
			t.Errorf("%s: %s seed=%d failed: %s", sw.name, r.Config, r.Seed, r.Failure)
		}
		js, err := json.Marshal(sum.Records)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(js)
		if got := hex.EncodeToString(h[:]); got != sw.want {
			t.Errorf("%s: torture records moved: sha256 %s, want %s", sw.name, got, sw.want)
		}
	}
}
