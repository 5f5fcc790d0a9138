package verify_test

import (
	"math/rand"
	"reflect"
	"testing"

	"wearmem/internal/chaos"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/kernel"
	"wearmem/internal/machine"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/verify"
	"wearmem/internal/vm"
	"wearmem/internal/workload"
)

// liveTarget is what a torture campaign hands the verifier at a collection
// (chaos.(*campaignRun).verifyNow), with the options a campaign passes.
func liveTarget(v *vm.VM, aware bool) (verify.Target, verify.Options) {
	t := verify.Target{
		Model: v.Model(), Roots: v.Roots(),
		Kernel: v.Kernel(), Device: v.Kernel().Device(), Policy: v.Kernel(),
	}
	if ix := v.Immix(); ix != nil {
		t.Views = ix.BlockViews()
		t.Epoch = ix.Epoch()
	} else if ms, ok := v.Plan().(interface{ Epoch() uint16 }); ok {
		t.Epoch = ms.Epoch()
	}
	pending := v.PendingRecovery()
	return t, verify.Options{SkipKernelTable: !aware || pending, SkipFailedLine: pending}
}

// sameReports reports whether Heap and HeapReference agree on the target,
// saying how they differ when they do not.
func sameReports(t *testing.T, tgt verify.Target, opt verify.Options) (*verify.Report, bool) {
	got, want := verify.Heap(tgt, opt), verify.HeapReference(tgt, opt)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Heap and HeapReference disagree\n got %d objects, %d checks: %v\nwant %d objects, %d checks: %v",
			got.Objects, got.Checks, got.Findings, want.Objects, want.Checks, want.Findings)
		return got, false
	}
	return got, true
}

func sameRecovered(t *testing.T, name string, rt verify.RecoveredTarget) *verify.Report {
	t.Helper()
	got, want := verify.Recovered(rt), verify.RecoveredReference(rt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Recovered and RecoveredReference disagree\n got %d checks: %v\nwant %d checks: %v",
			name, got.Checks, got.Findings, want.Checks, want.Findings)
	}
	return got
}

// TestReportsMatchReferenceOnRealHeaps holds Heap and Recovered to their
// references on the state real runs leave. A benchmark mutator runs on a
// torture-sized write-through machine (2 MB heap, 16 MB wearing pool)
// under a seeded torture schedule of injected failures. At every
// collection the heap is checked three ways: as a campaign checks it, with
// every check on, and with a rooted header smashed for the duration. After
// the run the device's image is restored and recovered, and the recovered
// table is checked against the device, against the image worn further
// behind the table's back, and against a device never worn.
func TestReportsMatchReferenceOnRealHeaps(t *testing.T) {
	const heapBytes, poolPages = 2 << 20, 16 << 20 / failmap.PageSize
	for _, c := range []struct {
		name      string
		collector vm.CollectorKind
		aware     bool
		seed      int64
	}{
		{"S-IX/aware", vm.StickyImmix, true, 42},
		{"IX/aware", vm.Immix, true, 7},
		{"IX/unaware", vm.Immix, false, 42},
		{"S-MS/unaware", vm.StickyMarkSweep, false, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			kc := kernel.Config{PCMPages: poolPages, RemapUnaware: true}
			dc := pcm.Config{Endurance: 2048, Variation: 0.25, TrackData: true, Seed: c.seed}
			vc := vm.Config{
				HeapBytes: heapBytes, Collector: c.collector, FailureAware: c.aware,
				WriteThrough: true, StrictRemap: true, MarkTriggerBytes: 24 << 10,
			}
			m, err := machine.Boot(machine.Spec{Kernel: kc, Device: &dc, Probe: true, VM: vc})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			in := chaos.NewInjector(chaos.NewCampaign(c.seed, 4), m.Device, m.Kernel, m.VM)
			collections, findings, broken := 0, 0, false
			m.SetProbe(func(p probe.Point, addr uint64) {
				in.Hook(p, addr)
				if p != probe.GCEnd || broken {
					return
				}
				collections++
				tgt, opt := liveTarget(m.VM, c.aware)
				for _, o := range []verify.Options{opt, {}} {
					rep, ok := sameReports(t, tgt, o)
					findings += len(rep.Findings)
					broken = broken || !ok
				}
				var root heap.Addr
				m.VM.Roots().Each(func(slot *heap.Addr) {
					if root == 0 {
						root = *slot
					}
				})
				if root == 0 {
					return
				}
				h := tgt.Model.S.Load64(root)
				tgt.Model.S.Store64(root, h|0xFFFF<<24) // an unregistered type
				rep, ok := sameReports(t, tgt, opt)
				tgt.Model.S.Store64(root, h)
				if ok && rep.Ok() {
					t.Errorf("collection %d: a smashed root header went unreported", collections)
				}
				broken = broken || !ok
			})
			if err := workload.ByName("pmd").RunMutators(m.VM, 1600, 1); err != nil {
				t.Logf("the workload ended early: %v", err)
			}
			if collections < 5 {
				t.Fatalf("%d collections: too few to compare on", collections)
			}
			t.Logf("%d collections, %d findings on the unsmashed heaps", collections, findings)

			img := m.Device.Snapshot()
			m2, err := machine.Boot(machine.Spec{Kernel: kc, Image: img, MinFrames: 2 * heapBytes / failmap.PageSize, VM: vc})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if rep := sameRecovered(t, "recovered", verify.RecoveredTarget{Pool: m2.Kernel, Scan: m2.Device, Clusters: m2.Device}); !rep.Ok() {
				t.Fatalf("recovered state: %v", rep.Err())
			}
			further, err := pcm.NewDeviceFromImage(img, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(c.seed))
			for i := 0; i < 40; i++ {
				further.ForceFail(rng.Intn(further.Lines()), make([]byte, failmap.LineSize))
			}
			if rep := sameRecovered(t, "worn further", verify.RecoveredTarget{Pool: m2.Kernel, Scan: further}); rep.Ok() {
				t.Fatal("lines failed behind the recovered table's back went unreported")
			}
			fresh := pcm.NewDevice(pcm.Config{Size: poolPages * failmap.PageSize}, nil)
			if rep := sameRecovered(t, "never worn", verify.RecoveredTarget{Pool: m2.Kernel, Scan: fresh}); rep.Ok() && m2.Device.FailedLines() > 0 {
				t.Fatal("a table of failures against a device that has none went unreported")
			}
		})
	}
}

// TestRecoveredMatchesReferenceOnWornDevices: the device's page word
// (pcm.Device.UnavailablePage) against its per-line answer, through the
// verifier, on worn devices of every geometry — plain, start-gap (whose
// lines move between storage slots) and clustered (whose metadata lines are
// unavailable without having failed) — recovered, and against a table that
// knows only every other failure.
func TestRecoveredMatchesReferenceOnWornDevices(t *testing.T) {
	const pages = 32
	for _, tc := range []struct {
		name string
		cfg  pcm.Config
	}{
		{"plain", pcm.Config{}},
		{"start-gap", pcm.Config{WearLeveling: pcm.StartGap, GapInterval: 3}},
		{"clustered", pcm.Config{ClusterPages: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Size, tc.cfg.Endurance, tc.cfg.Variation, tc.cfg.Seed = pages*failmap.PageSize, 6, 0.4, 11
			dev := pcm.NewDevice(tc.cfg, nil)
			rng := rand.New(rand.NewSource(5))
			buf := make([]byte, failmap.LineSize)
			for i := 0; i < 6*dev.Lines(); i++ {
				if l := rng.Intn(dev.Lines()); !dev.Unavailable(l) {
					dev.Write(l, buf)
				}
				for dev.BufferLen() > 0 {
					dev.Drain()
				}
			}
			img := dev.Snapshot()
			restored, err := pcm.NewDeviceFromImage(img, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			k := kernel.New(kernel.Config{PCMPages: pages, Device: restored})
			if _, err := k.Recover(kernel.RecoverOptions{}); err != nil {
				t.Fatal(err)
			}
			// Under start-gap the recovery's own scrub writes move the gap,
			// and a failed slot with it to another module line, so only the
			// two verifiers' agreement is asked there.
			rep := sameRecovered(t, "recovered", verify.RecoveredTarget{Pool: k, Scan: restored, Clusters: restored})
			if !rep.Ok() && tc.cfg.WearLeveling != pcm.StartGap {
				t.Fatalf("recovered state: %v", rep.Err())
			}
			half := failmap.New(pages * failmap.PageSize)
			fm := dev.FailMap()
			for l, n := 0, 0; l < fm.Lines(); l++ {
				if fm.LineFailed(l) {
					if n%2 == 0 {
						half.SetLineFailed(l)
					}
					n++
				}
			}
			partial := kernel.New(kernel.Config{PCMPages: pages, Inject: half})
			if rep := sameRecovered(t, "half the table", verify.RecoveredTarget{Pool: partial, Scan: dev}); rep.Ok() {
				t.Fatal("a table missing half the failures went unreported")
			}
		})
	}
}
