package kernel

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

func TestPolicyRegistries(t *testing.T) {
	for _, n := range []string{"", "paper", "rotate", "decoder", "migrate"} {
		p, err := NewPlacementPolicy(n)
		if err != nil {
			t.Fatalf("placement %q: %v", n, err)
		}
		r, err := NewRemapPolicy(n)
		if err != nil {
			t.Fatalf("remap %q: %v", n, err)
		}
		want := n
		if want == "" {
			want = "paper"
		}
		if p.Name() != want || r.Name() != want {
			t.Fatalf("policy %q resolves to %q/%q", n, p.Name(), r.Name())
		}
	}
	if _, err := NewPlacementPolicy("bogus"); err == nil {
		t.Fatal("unknown placement policy accepted")
	}
	if _, err := NewRemapPolicy("bogus"); err == nil {
		t.Fatal("unknown remap policy accepted")
	}
	if got := len(PlacementPolicies()); got != 4 {
		t.Fatalf("%d placement policies registered, want 4", got)
	}
	if got := len(RemapPolicies()); got != 4 {
		t.Fatalf("%d remap policies registered, want 4", got)
	}
}

// scanPerfectLeft is the O(n) reference implementation the maintained
// counter replaced: the count of untaken entries ahead of the queue head.
func scanPerfectLeft(k *Kernel) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for i := k.perfectHead; i < len(k.perfectQueue); i++ {
		if !k.taken[k.perfectQueue[i]] {
			n++
		}
	}
	return n
}

// TestPerfectPagesLeftDifferential drives a random mix of every operation
// that can move frames in or out of the perfect pool and cross-checks the
// O(1) counter against the reference scan after each one.
func TestPerfectPagesLeftDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inject := failmap.New(64 * failmap.PageSize)
	for i := 0; i < 40; i++ {
		inject.SetLineFailed(rng.Intn(64 * failmap.LinesPerPage))
	}
	k := New(Config{PCMPages: 64, Inject: inject})
	var regions []*Region
	check := func(op string, step int) {
		t.Helper()
		if got, want := k.PerfectPCMPagesLeft(), scanPerfectLeft(k); got != want {
			t.Fatalf("step %d after %s: counter says %d, scan says %d", step, op, got, want)
		}
	}
	check("boot", -1)
	for step := 0; step < 600; step++ {
		switch rng.Intn(5) {
		case 0:
			if r, err := k.MmapRelaxed(1 + rng.Intn(3)); err == nil {
				regions = append(regions, r)
			}
			check("MmapRelaxed", step)
		case 1:
			r, _ := k.MmapPerfect(1 + rng.Intn(2))
			regions = append(regions, r)
			check("MmapPerfect", step)
		case 2:
			if len(regions) > 0 {
				i := rng.Intn(len(regions))
				k.Release(regions[i])
				regions = append(regions[:i], regions[i+1:]...)
			}
			check("Release", step)
		case 3:
			k.SwapInPlacement(uint64(rng.Int63()), rng.Intn(2) == 0)
			check("SwapInPlacement", step)
		case 4:
			k.InjectRandomDynamicFailure(rng)
			check("InjectRandomDynamicFailure", step)
		}
	}
	// And across a failure-table restore, which rebuilds the queue.
	k2 := New(Config{PCMPages: 64})
	if err := k2.RestoreFailureTable(k.SaveFailureTable()); err != nil {
		t.Fatal(err)
	}
	if got, want := k2.PerfectPCMPagesLeft(), scanPerfectLeft(k2); got != want {
		t.Fatalf("after restore: counter says %d, scan says %d", got, want)
	}
}

// policyDevice builds a long-endurance device and kernel pair for the
// remap-mechanics tests.
func policyDevice(t *testing.T, placement, remap string) (*pcm.Device, *Kernel) {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{
		Size: 16 * failmap.PageSize, Endurance: 1 << 30, TrackData: true, Seed: 7,
	}, clock)
	k := New(Config{
		PCMPages: 16, Device: dev, Clock: clock,
		Placement: placement, Remap: remap,
	})
	return dev, k
}

func TestPolicyRemapFrameMovesMappedPage(t *testing.T) {
	dev, k := policyDevice(t, "paper", "paper")
	r, err := k.MmapRelaxed(1)
	if err != nil {
		t.Fatal(err)
	}
	src := r.Frame(0)
	line := make([]byte, failmap.LineSize)
	line[0] = 0xAB
	if err := k.WriteLine(r.Base, line); err != nil {
		t.Fatal(err)
	}
	dst := src + 3 // any free perfect frame
	if !k.PolicyRemapFrame(src, dst) {
		t.Fatal("remap of a mapped perfect page onto a free perfect frame refused")
	}
	if got := r.Frame(0); got != dst {
		t.Fatalf("page still backed by frame %d, want %d", got, dst)
	}
	if f, _, ok := k.Translate(r.Base); !ok || f != dst {
		t.Fatalf("Translate gives frame %d ok=%v, want %d", f, ok, dst)
	}
	// The device copy carried the contents to the new frame.
	got := make([]byte, failmap.LineSize)
	dev.Read(dst*failmap.LinesPerPage, got)
	if got[0] != 0xAB {
		t.Fatalf("dst line holds %#x, want 0xAB", got[0])
	}
	if k.PolicyRemaps() != 1 {
		t.Fatalf("PolicyRemaps = %d, want 1", k.PolicyRemaps())
	}
	// src returned to the pool: the next relaxed mapping may reuse it.
	r2, err := k.MmapRelaxed(1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Frame(0) != src {
		t.Fatalf("released source frame not recycled: got %d, want %d", r2.Frame(0), src)
	}
	// Stale pairs are refused: src is now mapped again, dst is taken.
	if k.PolicyRemapFrame(dst, dst) || k.PolicyRemapFrame(src, dst) {
		t.Fatal("stale or degenerate remap pair accepted")
	}
}

func TestPolicyPromoteFrameAccountsAsBorrow(t *testing.T) {
	_, k := policyDevice(t, "migrate", "migrate")
	r, err := k.MmapRelaxed(1)
	if err != nil {
		t.Fatal(err)
	}
	src := r.Frame(0)
	if !k.PolicyPromoteFrame(src) {
		t.Fatal("promotion of a mapped perfect PCM page refused")
	}
	if f := r.Frame(0); !k.FrameIsDRAM(f) {
		t.Fatalf("page backed by frame %d after promotion, want DRAM", f)
	}
	if k.Debt() != 1 || k.Borrows() != 1 {
		t.Fatalf("debt/borrows = %d/%d after promotion, want 1/1", k.Debt(), k.Borrows())
	}
	// DRAM pages cannot be promoted again.
	if k.PolicyPromoteFrame(r.Frame(0)) {
		t.Fatal("promotion accepted a DRAM frame")
	}
}

func TestRotatePlacementSpreadsAllocations(t *testing.T) {
	_, k := policyDevice(t, "rotate", "rotate")
	// A released region no longer translates: read the frames while mapped.
	a, _ := k.MmapRelaxed(2)
	a0, a1 := a.Frame(0), a.Frame(1)
	k.Release(a)
	b, _ := k.MmapRelaxed(2)
	b0, b1 := b.Frame(0), b.Frame(1)
	k.Release(b)
	// Released frames are reused first, like the stock policy.
	if b0 != a1 || b1 != a0 {
		t.Fatalf("released frames not reused: %d,%d then %d,%d", a0, a1, b0, b1)
	}
	// With the stack empty, the wrapping cursor keeps advancing instead of
	// re-handing the low frames.
	k.mu.Lock()
	k.released = nil
	k.mu.Unlock()
	c, _ := k.MmapRelaxed(2)
	if c.Frame(0) == 0 || c.Frame(0) == a0 {
		t.Fatalf("rotate placement restarted at the low frames (frame %d)", c.Frame(0))
	}
}

func TestMigratePlacementPrefersDRAM(t *testing.T) {
	_, k := policyDevice(t, "migrate", "migrate")
	r, borrowed := k.MmapPerfect(3)
	if borrowed != 3 {
		t.Fatalf("borrowed %d of 3 perfect pages, want all from DRAM", borrowed)
	}
	for i := 0; i < r.Pages; i++ {
		if !k.FrameIsDRAM(r.Frame(i)) {
			t.Fatalf("perfect page %d on PCM frame %d, want DRAM", i, r.Frame(i))
		}
	}
	// Exhaust the budget: perfect requests fall back to perfect PCM.
	for k.dramUsed() < k.dramBudget() {
		k.MmapPerfect(1)
	}
	r2, borrowed := k.MmapPerfect(1)
	if borrowed != 0 || k.FrameIsDRAM(r2.Frame(0)) {
		t.Fatalf("past budget: borrowed=%d frame=%d, want perfect PCM", borrowed, r2.Frame(0))
	}
}

// wearFrames drives enough write-through traffic on one page to cross
// every policy's remap threshold.
func wearFrames(t *testing.T, k *Kernel, r *Region, writes int) {
	t.Helper()
	buf := make([]byte, failmap.LineSize)
	for i := 0; i < writes; i++ {
		buf[0] = byte(i)
		if err := k.WriteLine(r.Base+uint64(i%4)*failmap.LineSize, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemapPoliciesFireOnWear(t *testing.T) {
	for _, tc := range []struct{ placement, remap string }{
		{"rotate", "rotate"}, {"decoder", "decoder"}, {"migrate", "migrate"},
	} {
		t.Run(tc.remap, func(t *testing.T) {
			var fired int
			hook := func(p probe.Point, addr uint64) {
				if p == probe.PolicyRemap {
					fired++
				}
			}
			clock := stats.NewClock(stats.DefaultCosts())
			dev := pcm.NewDevice(pcm.Config{
				Size: 16 * failmap.PageSize, Endurance: 1 << 30, TrackData: true, Seed: 7,
			}, clock)
			k := New(Config{
				PCMPages: 16, Device: dev, Clock: clock,
				Placement: tc.placement, Remap: tc.remap, Probe: hook,
			})
			r, err := k.MmapRelaxed(1)
			if err != nil {
				t.Fatal(err)
			}
			wearFrames(t, k, r, 3000)
			if k.PolicyRemaps() == 0 {
				t.Fatalf("%s policy performed no remaps after 3000 writes", tc.remap)
			}
			if fired != k.PolicyRemaps() {
				t.Fatalf("probe fired %d times for %d remaps", fired, k.PolicyRemaps())
			}
			if len(dev.OSBlob()) == 0 {
				t.Fatal("no durable policy state persisted at the remap boundary")
			}
			// The paper policy performs none and persists nothing.
			if tc.remap == "rotate" {
				_, kp := policyDevice(t, "paper", "paper")
				rp, _ := kp.MmapRelaxed(1)
				wearFrames(t, kp, rp, 3000)
				if kp.PolicyRemaps() != 0 || len(kp.Device().OSBlob()) != 0 {
					t.Fatal("paper policy remapped or persisted state")
				}
			}
		})
	}
}

// durableCounter digs the policy-specific durable counter out of a kernel
// (the tests live in package kernel, so they may inspect the concrete
// policy types).
func durableCounter(k *Kernel) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch p := k.remap.(type) {
	case *rotateRemap:
		return p.rotations
	case *decoderRemap:
		return p.swaps
	case *migrateRemap:
		return p.migrations
	}
	return 0
}

// TestPolicyStateSurvivesPowerCut is the policy half of the crash story:
// wear a device under each policy pair until remaps fire, cut power
// mid-run (Snapshot captures only durable state; the kernel is lost), and
// recover two independent kernels from the same image. Both must restore
// the durable policy counters the last remap boundary persisted, and both
// must behave byte-identically under identical resumed traffic — exactly
// as if power had never been lost between them.
func TestPolicyStateSurvivesPowerCut(t *testing.T) {
	for _, tc := range []struct{ placement, remap string }{
		{"paper", "paper"}, {"rotate", "rotate"}, {"decoder", "decoder"}, {"migrate", "migrate"},
	} {
		t.Run(tc.remap, func(t *testing.T) {
			_, k := policyDevice(t, tc.placement, tc.remap)
			r, err := k.MmapRelaxed(2)
			if err != nil {
				t.Fatal(err)
			}
			wearFrames(t, k, r, 3000)
			preCut := durableCounter(k)
			preRemaps := k.PolicyRemaps()
			if tc.remap != "paper" && preCut == 0 {
				t.Fatalf("%s policy never remapped before the cut", tc.remap)
			}
			img := k.Device().Snapshot() // power cut: mappings and DRAM state vanish

			boot := func() *Kernel {
				clock := stats.NewClock(stats.DefaultCosts())
				dev, err := pcm.NewDeviceFromImage(img, clock, nil)
				if err != nil {
					t.Fatal(err)
				}
				k2 := New(Config{
					PCMPages: 16, Device: dev, Clock: clock,
					Placement: tc.placement, Remap: tc.remap,
				})
				st, err := k2.Recover(RecoverOptions{MinFrames: 4})
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if want := preRemaps > 0; st.PolicyRestored != want {
					t.Fatalf("PolicyRestored = %v, want %v", st.PolicyRestored, want)
				}
				return k2
			}
			a, b := boot(), boot()
			if got := durableCounter(a); got != preCut {
				t.Fatalf("restored durable counter = %d, want the pre-cut %d", got, preCut)
			}

			// Identical resumed traffic must behave identically on both
			// recovered instances — the restored policy picks up where the
			// old life stopped.
			fingerprint := func(k2 *Kernel) [6]uint64 {
				r2, err := k2.MmapRelaxed(2)
				if err != nil {
					t.Fatal(err)
				}
				wearFrames(t, k2, r2, 1500)
				f, _, _ := k2.Translate(r2.Base)
				return [6]uint64{
					uint64(f), uint64(k2.PolicyRemaps()), durableCounter(k2),
					uint64(k2.Debt()), uint64(k2.Borrows()), k2.Device().TotalWrites(),
				}
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Fatalf("recovered twins diverged: %v vs %v", fa, fb)
			}
		})
	}
}

// TestPolicyStateIgnoredOnPolicyChange: a record written by one policy
// pair must not leak into a kernel booted with another.
func TestPolicyStateIgnoredOnPolicyChange(t *testing.T) {
	_, k := policyDevice(t, "decoder", "decoder")
	r, _ := k.MmapRelaxed(1)
	wearFrames(t, k, r, 3000)
	if k.PolicyRemaps() == 0 {
		t.Fatal("decoder never swapped")
	}
	img := k.Device().Snapshot()

	clock := stats.NewClock(stats.DefaultCosts())
	dev, err := pcm.NewDeviceFromImage(img, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2 := New(Config{PCMPages: 16, Device: dev, Clock: clock, Placement: "rotate", Remap: "rotate"})
	st, err := k2.Recover(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.PolicyRestored {
		t.Fatal("rotate kernel restored a decoder policy record")
	}
	if durableCounter(k2) != 0 {
		t.Fatal("foreign policy state leaked into the new policy")
	}
}

// TestCleanShutdownPersistsPlacementCursor: PersistPolicyState before a
// planned shutdown carries the rotate placement cursor across lives.
func TestCleanShutdownPersistsPlacementCursor(t *testing.T) {
	_, k := policyDevice(t, "rotate", "rotate")
	r, _ := k.MmapRelaxed(5)
	k.Release(r)
	k.PersistPolicyState()
	k.mu.Lock()
	want := k.placement.(*rotatePlacement).next
	k.mu.Unlock()
	if want == 0 {
		t.Fatal("rotate cursor never advanced")
	}
	img := k.Device().Snapshot()

	clock := stats.NewClock(stats.DefaultCosts())
	dev, err := pcm.NewDeviceFromImage(img, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2 := New(Config{PCMPages: 16, Device: dev, Clock: clock, Placement: "rotate", Remap: "rotate"})
	st, err := k2.Recover(RecoverOptions{SkipScrub: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.PolicyRestored {
		t.Fatal("clean-shutdown policy record not restored")
	}
	k2.mu.Lock()
	got := k2.placement.(*rotatePlacement).next
	k2.mu.Unlock()
	if got != want {
		t.Fatalf("restored rotate cursor = %d, want %d", got, want)
	}
}
