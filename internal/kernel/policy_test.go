package kernel

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/probe"
	"wearmem/internal/stats"
)

func TestPolicyRegistries(t *testing.T) {
	for _, n := range []string{"", "paper", "rotate", "decoder", "migrate"} {
		p, err := NewPolicy(n)
		if err != nil {
			t.Fatalf("policy %q: %v", n, err)
		}
		want := n
		if want == "" {
			want = "paper"
		}
		if p.Name() != want {
			t.Fatalf("policy %q resolves to %q", n, p.Name())
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if got := Policies(); len(got) != 4 {
		t.Fatalf("policies registered: %v, want 4", got)
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
		switch rng.Intn(4) {
		case 0:
			if r, err := k.MmapRelaxed(1 + rng.Intn(3)); err == nil {
				regions = append(regions, r)
			}
			check("MmapRelaxed", step)
		case 1:
			r, _ := perfect(t, k, 1+rng.Intn(2))
			regions = append(regions, r)
			check("MmapPerfect", step)
		case 2:
			if len(regions) > 0 {
				r := regions[rng.Intn(len(regions))]
				k.RemapPageAt(r.Base + uint64(rng.Intn(r.Pages))*failmap.PageSize)
			}
			check("RemapPageAt", step)
		case 3:
			k.InjectRandomDynamicFailure(rng)
			check("InjectRandomDynamicFailure", step)
		}
	}
	// And in a kernel booted over the table the run left, which builds the
	// queue afresh.
	table := failmap.New(64 * failmap.PageSize)
	for f := 0; f < 64; f++ {
		table.SetPageBitmap(f, k.FrameFailedLines(f))
	}
	k2 := New(Config{PCMPages: 64, Inject: table})
	if got, want := k2.PerfectPCMPagesLeft(), scanPerfectLeft(k2); got != want {
		t.Fatalf("after reboot: counter says %d, scan says %d", got, want)
	}
}

// policyDevice builds a long-endurance device and kernel pair for the
// remap-mechanics tests.
func policyDevice(t *testing.T, policy string) (*pcm.Device, *Kernel) {
	t.Helper()
	clock := stats.NewClock(stats.DefaultCosts())
	dev := pcm.NewDevice(pcm.Config{
		Size: 16 * failmap.PageSize, Endurance: 1 << 30, TrackData: true, Seed: 7,
	}, clock)
	k := New(Config{
		PCMPages: 16, Device: dev, Clock: clock, Policy: policy,
	})
	return dev, k
}

func TestPolicyRemapFrameMovesMappedPage(t *testing.T) {
	dev, k := policyDevice(t, "paper")
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

// TestRankFramesPicksFirstOfTies: the one ranking scan rotate and decoder
// share skips frames with a failed line, takes the hot frame among mapped
// frames and the cold one among free frames, and breaks ties toward the
// lowest frame.
func TestRankFramesPicksFirstOfTies(t *testing.T) {
	k := tableKernel(16) // frames 1, 5, 9 and 13 hold a failed line
	r, _ := perfect(t, k, 4)
	wear := make([]uint64, 16)
	hot, cold := 16, 16
	for f := range wear {
		mapped := k.reverse[f].region != nil
		switch {
		case f == 13:
			wear[f] = 0 // colder than any free frame, but failed
		case f%4 == 1:
			wear[f] = 1000 // hotter than any mapped frame, but failed
		case mapped:
			wear[f], hot = 50, min(hot, f)
		default:
			wear[f], cold = 10, min(cold, f)
		}
	}
	if r.Pages != 4 || hot == 16 || cold == 16 {
		t.Fatalf("setup: %d pages mapped, hot %d, cold %d", r.Pages, hot, cold)
	}
	k.mu.Lock()
	gotHot, gotCold := k.rankFramesLocked(wear)
	k.mu.Unlock()
	if gotHot != hot || gotCold != cold {
		t.Fatalf("ranked hot %d, cold %d; want the first of each tie, %d and %d", gotHot, gotCold, hot, cold)
	}
}

func TestPolicyPromoteFrameAccountsAsBorrow(t *testing.T) {
	_, k := policyDevice(t, "migrate")
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
	_, k := policyDevice(t, "rotate")
	// Remapping a's pages releases their frames.
	a, _ := k.MmapRelaxed(2)
	a0, a1 := a.Frame(0), a.Frame(1)
	k.RemapPageAt(a.Base)
	k.RemapPageAt(a.Base + failmap.PageSize)
	b, _ := k.MmapRelaxed(2)
	b0, b1 := b.Frame(0), b.Frame(1)
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
	_, k := policyDevice(t, "migrate")
	r, borrowed := perfect(t, k, 3)
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
	r2, borrowed := perfect(t, k, 1)
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
	for _, policy := range []string{"rotate", "decoder", "migrate"} {
		t.Run(policy, func(t *testing.T) {
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
				PCMPages: 16, Device: dev, Clock: clock, Policy: policy, Probe: hook,
			})
			r, err := k.MmapRelaxed(1)
			if err != nil {
				t.Fatal(err)
			}
			wearFrames(t, k, r, 3000)
			if k.PolicyRemaps() == 0 {
				t.Fatalf("%s policy performed no remaps after 3000 writes", policy)
			}
			if fired != k.PolicyRemaps() {
				t.Fatalf("probe fired %d times for %d remaps", fired, k.PolicyRemaps())
			}
			if len(dev.OSBlob()) == 0 {
				t.Fatal("no durable policy state persisted at the remap boundary")
			}
			// The paper policy performs none and persists nothing.
			if policy == "rotate" {
				_, kp := policyDevice(t, "paper")
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
	switch p := k.policy.(type) {
	case *rotatePolicy:
		return p.rotations
	case *decoderPolicy:
		return p.swaps
	case *migratePolicy:
		return p.migrations
	}
	return 0
}

// TestPolicyStateSurvivesPowerCut is the policy half of the crash story:
// wear a device under each policy until remaps fire, cut power
// mid-run (Snapshot captures only durable state; the kernel is lost), and
// recover two independent kernels from the same image. Both must restore
// the durable policy counters the last remap boundary persisted, and both
// must behave byte-identically under identical resumed traffic — exactly
// as if power had never been lost between them.
func TestPolicyStateSurvivesPowerCut(t *testing.T) {
	for _, policy := range []string{"paper", "rotate", "decoder", "migrate"} {
		t.Run(policy, func(t *testing.T) {
			_, k := policyDevice(t, policy)
			r, err := k.MmapRelaxed(2)
			if err != nil {
				t.Fatal(err)
			}
			wearFrames(t, k, r, 3000)
			preCut := durableCounter(k)
			preRemaps := k.PolicyRemaps()
			if policy != "paper" && preCut == 0 {
				t.Fatalf("%s policy never remapped before the cut", policy)
			}
			img := k.Device().Snapshot() // power cut: mappings and DRAM state vanish

			boot := func() *Kernel {
				clock := stats.NewClock(stats.DefaultCosts())
				dev, err := pcm.NewDeviceFromImage(img, clock, nil)
				if err != nil {
					t.Fatal(err)
				}
				k2 := New(Config{PCMPages: 16, Device: dev, Clock: clock, Policy: policy})
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
// must not leak into a kernel booted with another.
func TestPolicyStateIgnoredOnPolicyChange(t *testing.T) {
	_, k := policyDevice(t, "decoder")
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
	k2 := New(Config{PCMPages: 16, Device: dev, Clock: clock, Policy: "rotate"})
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

// TestParentFormatPolicyRecordStartsFresh: a device image whose OS blob is
// the earlier two-policy record (a placement and a remap name, each with
// its own state blob) recovers without error and without restoring
// anything — the same lenient rule as a policy change.
func TestParentFormatPolicyRecordStartsFresh(t *testing.T) {
	type pairImage struct {
		Placement      string
		Remap          string
		PlacementState []byte
		RemapState     []byte
	}
	cursor := binary.LittleEndian.AppendUint64(nil, 5)
	for _, policy := range []string{"paper", "rotate", "decoder", "migrate"} {
		t.Run(policy, func(t *testing.T) {
			dev, _ := policyDevice(t, policy)
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(&pairImage{
				Placement: policy, Remap: policy, PlacementState: cursor, RemapState: cursor,
			})
			if err != nil {
				t.Fatal(err)
			}
			dev.SetOSBlob(buf.Bytes())
			img := dev.Snapshot()

			clock := stats.NewClock(stats.DefaultCosts())
			dev2, err := pcm.NewDeviceFromImage(img, clock, nil)
			if err != nil {
				t.Fatal(err)
			}
			k := New(Config{PCMPages: 16, Device: dev2, Clock: clock, Policy: policy})
			st, err := k.Recover(RecoverOptions{})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if st.PolicyRestored {
				t.Fatal("a parent-format policy record was restored")
			}
			if durableCounter(k) != 0 || k.PolicyRemaps() != 0 {
				t.Fatalf("counters after recovery: durable %d, remaps %d, want 0/0",
					durableCounter(k), k.PolicyRemaps())
			}
			if rp, ok := k.policy.(*rotatePolicy); ok && rp.next != 0 {
				t.Fatalf("rotate cursor restored to %d from a parent-format record", rp.next)
			}
		})
	}
}
