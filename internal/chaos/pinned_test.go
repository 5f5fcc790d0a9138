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
	sweeps := []struct {
		names string
		want  string
	}{
		{"*/*", "e20ada68f63757d87870068a49b571de9c6e119e2117f35f9bdab6600a7cdbb1"},
		{"*/*/m4", "74e0d9a57ec3d7007a787f3737bb5406cf45ddc0a169511fc7d8d3634443804d"},
		{"S-IX/*/inc10000", "8da3c91a5b5bfbeb8ceeb2d205bd163bd2c830c0a0d814ac512958414757650e"},
	}
	for _, sw := range sweeps {
		sum := Run(Options{Seeds: 4, Configs: mustParse(t, sw.names)})
		for _, r := range sum.Failures() {
			t.Errorf("%s: %s seed=%d failed: %s", sw.names, r.Config, r.Seed, r.Failure)
		}
		js, err := json.Marshal(sum.Records)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(js)
		if got := hex.EncodeToString(h[:]); got != sw.want {
			t.Errorf("%s: torture records moved: sha256 %s, want %s", sw.names, got, sw.want)
		}
	}
}

// TestCrashRecordsPinned holds the crash sweep on the baton configurations
// (write-through on and off, one seed, every probe point cut) to the sha256
// of its whole records: preamble schedule, cut point, rediscovered lines,
// recovery cycles and the resumed run's counts. It is the crash half of the
// oracle above — a hash that moves means the doomed run, the image, the
// recovery or the resume changed.
func TestCrashRecordsPinned(t *testing.T) {
	const want = "f2001ec597600308af809c42419a0a19ff8fd866efe4c782a92b9d760a48cf2d"
	sum := CrashSweep(Options{Seeds: 1, Configs: mustParse(t, "S-IX/aware S-IX/aware/nowt")})
	for _, r := range sum.Records {
		if r.Failure != "" {
			t.Errorf("%s seed=%d cut=%s failed: %s", r.Config, r.Seed, r.Cut, r.Failure)
		}
	}
	js, err := json.Marshal(sum.Records)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(js)
	if got := hex.EncodeToString(h[:]); got != want {
		t.Errorf("crash records moved: sha256 %s, want %s (%d campaigns, %d cuts fired)",
			got, want, sum.Campaigns, sum.CutsFired)
	}
}
