package verify_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/verify"
)

// kernelStub maps pages to frames and keeps a failure word per frame.
type kernelStub struct {
	frames map[uint64]int // page -> frame
	failed map[int]uint64
}

func (k *kernelStub) Translate(vaddr uint64) (int, int, bool) {
	f, ok := k.frames[vaddr/failmap.PageSize]
	return f, int(vaddr % failmap.PageSize), ok
}
func (k *kernelStub) FrameFailedLines(f int) uint64 { return k.failed[f] }
func (k *kernelStub) FrameIsDRAM(int) bool          { return false }

type deviceStub struct {
	len, watermark               int
	stalled                      bool
	pushed, invalidated, drained uint64
	buffered                     []int
	unavailable                  map[int]bool
}

func (d *deviceStub) BufferLen() int { return d.len }
func (d *deviceStub) Stalled() bool  { return d.stalled }
func (d *deviceStub) Watermark() int { return d.watermark }
func (d *deviceStub) BufferAccounting() (uint64, uint64, uint64) {
	return d.pushed, d.invalidated, d.drained
}
func (d *deviceStub) BufferedLines() []int      { return d.buffered }
func (d *deviceStub) Unavailable(line int) bool { return d.unavailable[line] }

type policyStub struct {
	name                                    string
	remaps, debt, borrows, repaid, perfects int
}

func (p *policyStub) PolicyName() string       { return p.name }
func (p *policyStub) PolicyRemaps() int        { return p.remaps }
func (p *policyStub) Debt() int                { return p.debt }
func (p *policyStub) Borrows() int             { return p.borrows }
func (p *policyStub) Repaid() int              { return p.repaid }
func (p *policyStub) PerfectPCMPagesLeft() int { return p.perfects }

// planted is a target on which every check of Heap runs and passes: the
// hand-built heap (pair at 0x40 and blob at 0x80 on line 0, refs at 0x100
// on line 1) at epoch 2, as one 16-line Immix block on frame 7 of an OS
// table, with a device buffer, two mutator contexts and a policy, all
// consistent. A case corrupts one thing.
type planted struct {
	*handHeap
	cell   *heap.Type // a header-only fixed type, for objects planted by hand
	kern   *kernelStub
	dev    *deviceStub
	policy *policyStub
	t      verify.Target
	opt    verify.Options
	// contexts are two mutators' allocation contexts, for Mutators.
	contexts []verify.ContextView
}

func (p *planted) view() *verify.BlockView { return &p.t.Views[0] }

func newPlanted() *planted {
	p := &planted{handHeap: newHandHeap()}
	p.cell = p.m.T.Register(&heap.Type{Name: "cell", Kind: heap.KindFixed, Size: heap.HeaderSize})
	for _, a := range []heap.Addr{p.pair, p.blob, p.refs} {
		p.m.SetEpoch(a, 2)
	}
	states := []byte(strings.Repeat(".", 16))
	states[0], states[1] = verify.LineLive, verify.LineLive
	p.kern = &kernelStub{frames: map[uint64]int{0: 7}, failed: map[int]uint64{}}
	p.dev = &deviceStub{len: 1, watermark: 4, pushed: 3, invalidated: 1, drained: 1,
		buffered: []int{9}, unavailable: map[int]bool{9: true}}
	p.policy = &policyStub{name: "paper", debt: 1, borrows: 3, repaid: 2, perfects: 5}
	p.t = verify.Target{
		Model: p.m, Roots: p.roots, Epoch: 2,
		Views:  []verify.BlockView{{Base: 0, LineSize: 256, FreeLines: 14, States: states}},
		Kernel: p.kern, Device: p.dev, Policy: p.policy,
	}
	p.contexts = []verify.ContextView{
		{ID: 0, BlockSize: 0x8000, CurBlock: 0x10000, CurCursor: 0x10100, CurLimit: 0x10200},
		{ID: 1, BlockSize: 0x8000, CurBlock: 0x18000, CurCursor: 0x18100, CurLimit: 0x18200},
	}
	return p
}

// object plants a header-only object at a and points slot at it.
func (p *planted) object(a, slot heap.Addr) {
	p.m.InitObject(a, p.cell, heap.HeaderSize, 0)
	p.m.SetEpoch(a, 2)
	p.m.S.Store64(slot, uint64(a))
}

// setSize rewrites the size field of a's header.
func (p *planted) setSize(a heap.Addr, size int) {
	p.m.S.Store64(a, p.m.S.Load64(a)&(1<<40-1)|uint64(size)<<40)
}

// heapBoth runs Heap and HeapReference on the same target and requires
// the same report: objects, checks, and every finding in order.
func heapBoth(t *testing.T, tgt verify.Target, opt verify.Options) *verify.Report {
	t.Helper()
	got, want := verify.Heap(tgt, opt), verify.HeapReference(tgt, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Heap and HeapReference disagree\n got %d objects, %d checks: %v\nwant %d objects, %d checks: %v",
			got.Objects, got.Checks, got.Findings, want.Objects, want.Checks, want.Findings)
	}
	return got
}

// finds reports whether rep holds a finding of the invariant whose detail
// contains detail.
func finds(rep *verify.Report, invariant, detail string) bool {
	for _, f := range rep.Findings {
		if f.Invariant == invariant && strings.Contains(f.Detail, detail) {
			return true
		}
	}
	return false
}

func TestHeapCleanPlantedTarget(t *testing.T) {
	p := newPlanted()
	rep := heapBoth(t, p.t, p.opt)
	if !rep.Ok() || rep.Objects != 3 || rep.Checks != 6 {
		t.Fatalf("clean target: %d objects, %d checks, %v", rep.Objects, rep.Checks, rep.Err())
	}
	if rep := verify.Mutators(p.contexts); !rep.Ok() || rep.Checks != 1 {
		t.Fatalf("clean contexts: %d checks, %v", rep.Checks, rep.Err())
	}
}

// TestHeapPlantedFindings is the negative control for every finding Heap
// can record: each case plants one corruption, and the report must carry
// the finding, equal HeapReference's, and lose the finding once the check
// that owns it is off — its Skip option, or, for the families no option
// turns off, the target field that enables them. The mutator cases plant
// into the contexts Mutators checks, which a caller runs or does not, so
// they have no off switch.
func TestHeapPlantedFindings(t *testing.T) {
	skipGraph := func(_ *verify.Target, o *verify.Options) { o.SkipGraph = true }
	noViews := func(t *verify.Target, _ *verify.Options) { t.Views = nil }
	skipKernel := func(_ *verify.Target, o *verify.Options) { o.SkipKernelTable = true }
	skipBuffer := func(_ *verify.Target, o *verify.Options) { o.SkipBuffer = true }
	noPolicy := func(t *verify.Target, _ *verify.Options) { t.Policy = nil }
	refsSlot := func(p *planted, i int) heap.Addr { return p.refs + heap.ArrayHeaderSize + heap.Addr(i*heap.WordSize) }

	for _, c := range []struct {
		name, invariant, detail string
		plant                   func(p *planted)
		off                     func(*verify.Target, *verify.Options)
	}{
		{"reference outside the space", "graph", "from 0x100 (refs) points outside the space (size 0x1000)",
			func(p *planted) { p.m.S.Store64(refsSlot(p, 1), 4096-4) }, skipGraph},
		{"root outside the space", "graph", "0xffffff from roots points outside",
			func(p *planted) { p.root = 0xffffff }, skipGraph},
		{"forwarded", "graph", "0x80 holds a forwarding pointer",
			func(p *planted) { p.m.Forward(p.blob, 512) }, skipGraph},
		{"unregistered type", "graph", "0x80 has unregistered type index 999",
			func(p *planted) { p.m.S.Store64(p.blob, uint64(999)<<24|uint64(40)<<40) }, skipGraph},
		{"impossible size", "graph", "0x100 (refs) has impossible size 8192",
			func(p *planted) { p.setSize(p.refs, 8192) }, skipGraph},
		{"fixed-size mismatch", "graph", "0x40: size 48 does not match fixed type pair (40)",
			func(p *planted) { p.setSize(p.pair, 48) }, skipGraph},
		{"short array", "graph", "array 0x80 (blob) smaller than the array header",
			func(p *planted) { p.setSize(p.blob, heap.HeaderSize) }, skipGraph},
		{"array length", "graph", "array 0x80 (blob): 100 elements inconsistent with size 40",
			func(p *planted) { p.m.S.Store64(p.blob+heap.ArrayLenOffset, 100) }, skipGraph},
		{"unaligned reference", "graph", "reachable reference 0x43 holds a forwarding pointer",
			func(p *planted) { p.m.S.Store64(refsSlot(p, 1), uint64(p.pair+3)) }, skipGraph},
		{"overlap", "overlap", "objects 0x80 (+40) and 0x98 overlap",
			func(p *planted) { p.object(p.blob+24, refsSlot(p, 1)) }, skipGraph},
		// Two objects at unaligned addresses, one between the aligned ones
		// (inside the pair) and one past them on a free line: the address
		// order merges them in.
		{"reachable unaligned objects", "overlap", "objects 0x40 (+40) and 0x64 overlap",
			func(p *planted) { p.object(100, p.pair+8); p.object(1028, refsSlot(p, 1)) }, skipGraph},
		{"reachable unaligned object on a free line", "line-state", "object 0x404 overlaps free line 4",
			func(p *planted) { p.object(100, p.pair+8); p.object(1028, refsSlot(p, 1)) }, skipGraph},
		{"epoch", "epoch", "0x100 (refs) carries epoch 2, want 3",
			func(p *planted) { p.t.Epoch = 3 }, skipGraph},
		{"free-line counter", "line-state", "14 free lines in states, counter says 13",
			func(p *planted) { p.view().FreeLines = 13 }, noViews},
		{"failed-line counter", "line-state", "0 failed lines in states, counter says 1",
			func(p *planted) { p.view().Failed = 1 }, noViews},
		{"object on a free line", "line-state", "reachable object 0x100 overlaps free line 1 of block 0x0",
			func(p *planted) { p.view().States[1] = verify.LineFree; p.view().FreeLines = 15 }, skipGraph},
		// The block holding refs was released while refs stayed reachable.
		{"object in no block", "line-state", "reachable object 0x100 lies in no block and no large object",
			func(p *planted) {
				p.view().States, p.view().FreeLines = p.view().States[:1], 0
				p.t.Large = func(a uint64) bool { return a == 0x800 }
			}, func(t *verify.Target, _ *verify.Options) { t.Large = nil }},
		{"object on a failed line", "failed-line", "reachable object 0x100 overlaps failed line 1 of block 0x0",
			func(p *planted) {
				p.view().States[1] = verify.LineFailed
				p.view().Failed = 1
				p.kern.failed[7] = 0xF << 4 // line 1's four device lines, so the table agrees
			}, func(_ *verify.Target, o *verify.Options) { o.SkipFailedLine = true }},
		{"unmapped line", "kernel-table", "block 0x0 line 15 is unmapped at 0xf00",
			func(p *planted) { delete(p.kern.frames, 0) }, skipKernel},
		{"usable line the table marks failed", "kernel-table",
			"block 0x0 line 5 (.) is usable to the runtime but the OS table marks 0x200000 failed (frame 7)",
			func(p *planted) { p.kern.failed[7] = 1 << 21 }, skipKernel},
		{"retired line with clean backing", "kernel-table", "block 0x0 line 5 is retired but its OS backing (frame 7) is clean",
			func(p *planted) {
				p.view().States[5] = verify.LineFailed
				p.view().Failed, p.view().FreeLines = 1, 13
			}, skipKernel},
		{"buffer accounting", "buffer", "buffer holds 1 entries, accounting says 2 (pushed 4",
			func(p *planted) { p.dev.pushed = 4 }, skipBuffer},
		{"stalled below the watermark", "buffer", "device stalled below the watermark (1 < 4)",
			func(p *planted) { p.dev.stalled = true }, skipBuffer},
		{"not stalled at the watermark", "buffer", "device not stalled at the watermark (4 >= 4)",
			func(p *planted) {
				p.dev.len, p.dev.pushed = 4, 6
				p.dev.buffered = []int{9, 10, 11, 12}
				for _, l := range p.dev.buffered {
					p.dev.unavailable[l] = true
				}
			}, skipBuffer},
		{"buffered line still available", "buffer", "buffered line 9 is still available to software",
			func(p *planted) { p.dev.unavailable[9] = false }, skipBuffer},
		{"cursor beyond its limit", "mutator", "context 0 cur cursor 0x10300 beyond its limit 0x10200",
			func(p *planted) { p.contexts[0].CurCursor = 0x10300 }, nil},
		{"hole outside its block", "mutator", "context 0 cur hole [0x10100,0x18100) outside its block 0x10000",
			func(p *planted) { p.contexts[0].CurLimit = 0x18100 }, nil},
		{"shared block", "mutator", "contexts 0 (cur) and 1 (over) both own block 0x10000",
			func(p *planted) {
				c := &p.contexts[1]
				c.OverBlock, c.OverCursor, c.OverLimit = 0x10000, 0x10400, 0x10500
			}, nil},
		{"overlapping holes", "mutator", "context 0 cur hole [0x10100,0x10200) overlaps context 1 cur hole [0x10180,0x10280)",
			func(p *planted) { p.contexts[1].CurCursor, p.contexts[1].CurLimit = 0x10180, 0x10280 }, nil},
		{"unnamed policies", "policy", "kernel reports an unnamed policy",
			func(p *planted) { p.policy.name = "" }, noPolicy},
		{"negative debt", "policy", "DRAM debt is negative (-1)",
			func(p *planted) { p.policy.debt, p.policy.borrows, p.policy.repaid = -1, 2, 3 }, noPolicy},
		{"ledger out of balance", "policy", "DRAM ledger out of balance: debt 2, borrows 3 - repaid 2 = 1",
			func(p *planted) { p.policy.debt = 2 }, noPolicy},
		{"negative perfect pool", "policy", "perfect-pool counter is negative (-1)",
			func(p *planted) { p.policy.perfects = -1 }, noPolicy},
		{"negative remap counter", "policy", "policy remap counter is negative (-1)",
			func(p *planted) { p.policy.remaps = -1 }, noPolicy},
		{"stock policy remapped", "policy", "stock policy performed 2 remaps",
			func(p *planted) { p.policy.remaps = 2 }, noPolicy},
		// 200 references outside the space: the report keeps the first 100.
		{"more findings than a report holds", "graph", "from 0x800 (refs) points outside",
			func(p *planted) {
				big := heap.Addr(0x800)
				p.m.InitObject(big, p.m.TypeOf(p.refs), heap.ArraySize(p.m.TypeOf(p.refs), 200), 200)
				p.m.SetEpoch(big, 2)
				for i := 0; i < 200; i++ {
					p.m.S.Store64(big+heap.ArrayHeaderSize+heap.Addr(i*heap.WordSize), 4096)
				}
				p.m.S.Store64(refsSlot(p, 1), uint64(big))
			}, skipGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPlanted()
			c.plant(p)
			if c.off == nil {
				if rep := verify.Mutators(p.contexts); !finds(rep, c.invariant, c.detail) {
					t.Fatalf("no %s finding %q in %v", c.invariant, c.detail, rep.Findings)
				}
				return
			}
			if rep := heapBoth(t, p.t, p.opt); !finds(rep, c.invariant, c.detail) {
				t.Fatalf("no %s finding %q in %v", c.invariant, c.detail, rep.Findings)
			}
			c.off(&p.t, &p.opt)
			if rep := heapBoth(t, p.t, p.opt); finds(rep, c.invariant, c.detail) {
				t.Fatalf("the %s finding survived turning its check off: %v", c.invariant, rep.Findings)
			}
		})
	}
}

// TestHeapReportsWildReference: a reference within a header of 2^64 is
// outside the space like any other — reported, not followed into a panic.
func TestHeapReportsWildReference(t *testing.T) {
	m := &heap.Model{S: heap.NewSpace(), T: heap.NewTypeTable()}
	m.S.Ensure(64 << 10)
	root := ^heap.Addr(0) - 3
	roots := &rootSlots{&root}
	rep := verify.Heap(verify.Target{Model: m, Roots: roots}, verify.Options{})
	if len(rep.Findings) != 1 || rep.Findings[0].Invariant != "graph" ||
		!strings.Contains(rep.Findings[0].Detail, "0xfffffffffffffffc from roots points outside the space") {
		t.Fatalf("want one graph finding for the wild root, got %v", rep.Findings)
	}
}

// TestHeapBoundsAReservedSpaceByItsMappedMark: on a space whose whole
// reservation is addressable, as a threaded run's is, a reference past the
// mapped high-water mark is outside the space, though a load there would
// not fault.
func TestHeapBoundsAReservedSpaceByItsMappedMark(t *testing.T) {
	m := &heap.Model{S: heap.NewSpaceBelow(1 << 20), T: heap.NewTypeTable()}
	m.S.Reserve()
	m.S.Ensure(64 << 10)
	root := heap.Addr(128 << 10)
	m.S.Load64(root)
	rep := verify.Heap(verify.Target{Model: m, Roots: &rootSlots{&root}}, verify.Options{})
	if len(rep.Findings) != 1 || rep.Findings[0].Invariant != "graph" ||
		!strings.Contains(rep.Findings[0].Detail, "0x20000 from roots points outside the space (size 0x10000)") {
		t.Fatalf("want one graph finding for the root past the mapped mark, got %v", rep.Findings)
	}
}

// rootSlots is a root set of plain slots.
type rootSlots []*heap.Addr

func (r *rootSlots) Each(f func(slot *heap.Addr)) {
	for _, s := range *r {
		f(s)
	}
}

// TestRecoveredPlantedFindings does for Recovered what
// TestHeapPlantedFindings does for Heap; Recovered has no options, so a
// case asserts the finding and RecoveredReference's report.
func TestRecoveredPlantedFindings(t *testing.T) {
	const lines = 3 * failmap.LinesPerPage
	for _, c := range []struct {
		name, invariant, detail string
		t                       verify.RecoveredTarget
	}{
		{"resurrected line", "recovered-table", "device line 70 (frame 1 line 6) is failed but the recovered table is clean",
			verify.RecoveredTarget{Pool: tableStub{pages: 3}, Scan: scanStub{lines: lines, failed: map[int]bool{70: true}}}},
		{"working line written off", "recovered-table", "marks frame 1 line 3 failed but device line 67 is working",
			verify.RecoveredTarget{Pool: tableStub{pages: 3, bm: map[int]uint64{1: 1 << 3}}, Scan: scanStub{lines: lines}}},
		// Both directions in one page, and a device that ends mid-page:
		// lines past its end are not compared on either side.
		{"both directions, ragged end", "recovered-table", "device line 137 (frame 2 line 9) is failed",
			verify.RecoveredTarget{
				Pool: tableStub{pages: 3, bm: map[int]uint64{2: 1<<2 | 1<<40}},
				Scan: scanStub{lines: 2*failmap.LinesPerPage + 20, failed: map[int]bool{137: true, 160: true}},
			}},
		{"more findings than a report holds", "recovered-table", "marks frame 0 line 0 failed",
			verify.RecoveredTarget{Pool: tableStub{pages: 3, bm: map[int]uint64{0: ^uint64(0), 1: ^uint64(0), 2: ^uint64(0)}},
				Scan: scanStub{lines: lines, failed: map[int]bool{}}}},
		{"parked residue", "recovered-buffer", "2 orphaned failure-buffer entries",
			verify.RecoveredTarget{Scan: scanStub{lines: lines, buffered: 2}}},
		{"corrupt redirection maps", "cluster-map", "map is not a permutation",
			verify.RecoveredTarget{Clusters: clusterStub{err: errors.New("region 3: map is not a permutation")}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := verify.Recovered(c.t), verify.RecoveredReference(c.t)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Recovered and RecoveredReference disagree\n got %d checks: %v\nwant %d checks: %v",
					got.Checks, got.Findings, want.Checks, want.Findings)
			}
			if !finds(got, c.invariant, c.detail) {
				t.Fatalf("no %s finding %q in %v", c.invariant, c.detail, got.Findings)
			}
		})
	}
}
