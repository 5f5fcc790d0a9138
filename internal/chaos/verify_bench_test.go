package chaos

import (
	"testing"

	"wearmem/internal/machine"
	"wearmem/internal/probe"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
)

// benchConfig and benchSeed name the campaign the verifier benchmarks stop
// in the middle of: the paper's headline configuration at the ledger's
// seed, 2 MB heap on a 16 MB write-through pool that keeps line contents.
var benchConfig = TortureConfig{Collector: vm.StickyImmix, FailureAware: true}

const benchSeed = 42

// midCampaign runs the benchmark campaign to its nth verified collection
// and calls at there, with the world stopped; the campaign ends at that
// point.
func midCampaign(tb testing.TB, nth int, at func(r *campaignRun, m *machine.Machine)) {
	tb.Helper()
	camp := NewCampaignFrom(benchSeed, 4, campaignPoints)
	m, err := bootCampaign(benchConfig, camp.Seed, tortureHeapBytes, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	var rec CampaignRecord
	in := NewInjector(camp, m.Device, m.Kernel, m.VM)
	r := &campaignRun{opt: Options{}.withDefaults(), cfg: benchConfig, camp: camp, v: m.VM, in: in, rec: &rec}
	const stopped = "stopped mid-campaign"
	m.SetProbe(func(p probe.Point, addr uint64) {
		in.Hook(p, addr)
		if p != probe.GCEnd || r.failed() {
			return
		}
		if r.verifyNow(); r.rec.Verifications == nth && !r.failed() {
			at(r, m)
			r.fail(stopped)
		}
	})
	r.workload()
	if rec.Failure != stopped {
		tb.Fatalf("the campaign did not reach collection %d: %q", nth, rec.Failure)
	}
}

// BenchmarkVerifyHeap is one verify.Heap call as a torture campaign makes
// it, at the campaign's tenth collection: every check on, the reachable
// heap, one Immix block view per block, the OS table behind them, the
// device's buffer and the policy ledger.
func BenchmarkVerifyHeap(b *testing.B) {
	midCampaign(b, 10, func(r *campaignRun, _ *machine.Machine) {
		t, opt := r.heapTarget()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if rep := verify.Heap(t, opt); !rep.Ok() {
				b.Fatal(rep.Err())
			}
		}
		b.StopTimer()
	})
}

// BenchmarkVerifyRecovered is one verify.Recovered call as a crash campaign
// makes it: power cut at the tenth collection, the image restored and the
// kernel recovered over it, the table checked against the whole device.
func BenchmarkVerifyRecovered(b *testing.B) {
	var m *machine.Machine
	midCampaign(b, 10, func(_ *campaignRun, doomed *machine.Machine) {
		var err error
		if m, err = bootCampaign(benchConfig, benchSeed, tortureHeapBytes, doomed.Device.Snapshot()); err != nil {
			b.Fatal(err)
		}
	})
	defer m.Close()
	t := verify.RecoveredTarget{Pool: m.Kernel, Scan: m.Device, Clusters: m.Device}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if rep := verify.Recovered(t); !rep.Ok() {
			b.Fatal(rep.Err())
		}
	}
}
