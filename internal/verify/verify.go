// Package verify promotes the shadow-test heap invariants into
// production-usable checkers, callable after any collection (§4.3's
// correctness claim made executable). It validates five invariant families
// against a live runtime:
//
//   - reachable-graph integrity: every object reachable from the roots has
//     a well-formed header (registered type, consistent size, no dangling
//     forwarding pointer), reachable objects do not overlap, and — right
//     after a collection — every reachable object carries the current mark
//     epoch;
//   - line-state consistency: the Immix per-block line states agree with
//     the blocks' cached counters, and no reachable object lies on a free
//     line;
//   - failed-line exclusion: no live object overlaps a failed line, and
//     the runtime's line states agree with the OS failure table in both
//     directions (a retired line has failed backing, a usable line has
//     none);
//   - failure-buffer drain accounting: buffered = pushed - invalidated -
//     drained, the stall flag matches the watermark, and every buffered
//     line is actually unavailable;
//   - per-mutator ownership: no two allocation contexts own the same
//     block, and no context's bump cursor lies inside another context's
//     claimed lines;
//   - policy accounting: the kernel's frame policy has a name, the DRAM
//     borrow ledger balances (debt = borrows - repaid), and the stock
//     policy has performed no migrations.
//
// The package deliberately imports none of the runtime layers: collectors
// hand their state over as plain data (BlockView) or through structural
// interfaces satisfied by core.RootSet, *kernel.Kernel and *pcm.Device, so
// the in-package collector tests can drive the same checker the production
// torture mode uses without an import cycle.
package verify

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"wearmem/internal/bitset"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
)

// Finding is one invariant violation.
type Finding struct {
	// Invariant names the violated invariant family (stable identifiers:
	// "graph", "overlap", "epoch", "line-state", "failed-line",
	// "kernel-table", "buffer", "mutator", "policy").
	Invariant string
	// Detail is a human-readable description with addresses.
	Detail string
}

func (f Finding) String() string { return f.Invariant + ": " + f.Detail }

// maxFindings bounds a report so a badly corrupted heap cannot flood it.
const maxFindings = 100

// Report is the outcome of one verification pass.
type Report struct {
	// Objects is the number of reachable objects walked.
	Objects int
	// Checks counts the invariant families that actually ran.
	Checks int
	// Findings holds the violations, capped at maxFindings.
	Findings  []Finding
	truncated bool
}

// Ok reports whether every executed check passed.
func (r *Report) Ok() bool { return len(r.Findings) == 0 }

// Err returns nil when the report is clean, or an error summarizing the
// findings.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "heap verification failed: %d finding(s)", len(r.Findings))
	if r.truncated {
		sb.WriteString(" (truncated)")
	}
	for i, f := range r.Findings {
		if i == 8 {
			fmt.Fprintf(&sb, "; ... %d more", len(r.Findings)-i)
			break
		}
		sb.WriteString("; ")
		sb.WriteString(f.String())
	}
	return errors.New(sb.String())
}

func (r *Report) add(invariant, format string, args ...interface{}) {
	if len(r.Findings) >= maxFindings {
		r.truncated = true
		return
	}
	r.Findings = append(r.Findings, Finding{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Options disables individual invariant families. The skips exist for
// negative-control testing (demonstrating that a weakened verifier misses
// a planted bug); production callers pass the zero value.
type Options struct {
	// SkipGraph disables the reachable-graph walk (and with it every check
	// that needs the reachable set).
	SkipGraph bool
	// SkipFailedLine disables the "no live object overlaps a failed line"
	// invariant.
	SkipFailedLine bool
	// SkipKernelTable disables the cross-check of line states against the
	// OS failure table.
	SkipKernelTable bool
	// SkipBuffer disables the failure-buffer drain accounting.
	SkipBuffer bool
}

// Roots is the root-set surface the verifier walks; *core.RootSet
// implements it.
type Roots interface {
	Each(f func(slot *heap.Addr))
}

// Line-state glyphs, matching the core inspector's rendering.
const (
	LineFree    = '.'
	LineLive    = '#'
	LineClaimed = '+'
	LineFailed  = 'X'
)

// BlockView is one Immix block's line states as plain data
// (core.(*Immix).BlockViews converts).
type BlockView struct {
	Base      uint64
	LineSize  int
	FreeLines int
	Failed    int
	Holes     int
	Evacuate  bool
	States    []byte
}

// ContextView is one mutator allocation context as plain data
// (core.(*Immix).ContextViews converts). A zero block address means the
// context currently holds no block in that role.
type ContextView struct {
	ID        int
	BlockSize int
	// CurBlock/CurCursor/CurLimit describe the small-object bump
	// allocator: the claimed hole [CurCursor, CurLimit) inside CurBlock.
	CurBlock  uint64
	CurCursor uint64
	CurLimit  uint64
	// OverBlock and friends describe the overflow allocator the same way.
	OverBlock  uint64
	OverCursor uint64
	OverLimit  uint64
}

// FrameSource is the OS surface the verifier cross-checks line states
// against; *kernel.Kernel implements it. Translate maps a page at a time:
// every address of a page has the page's frame, at its offset in the page.
type FrameSource interface {
	Translate(vaddr uint64) (frame, offset int, ok bool)
	FrameFailedLines(frame int) uint64
	FrameIsDRAM(frame int) bool
}

// BufferSource is the device surface for failure-buffer drain accounting;
// *pcm.Device implements it.
type BufferSource interface {
	BufferLen() int
	Stalled() bool
	Watermark() int
	BufferAccounting() (pushed, invalidated, drained uint64)
	BufferedLines() []int
	Unavailable(line int) bool
}

// PolicySource is the kernel surface for the frame-policy accounting
// check; *kernel.Kernel implements it.
type PolicySource interface {
	PolicyName() string
	PolicyRemaps() int
	Debt() int
	Borrows() int
	Repaid() int
	PerfectPCMPagesLeft() int
}

// Target bundles the runtime state one verification pass inspects. Model
// and Roots are required for the graph walk; the rest is optional and
// enables the corresponding checks.
type Target struct {
	Model *heap.Model
	Roots Roots
	// Views are the Immix line states; nil for plans without lines.
	Views []BlockView
	// Epoch, when nonzero, asserts that every reachable object carries
	// this mark epoch — valid immediately after a collection (sticky marks
	// keep old objects at the current epoch across nursery passes).
	Epoch uint16
	// Kernel enables the OS failure-table cross-check.
	Kernel FrameSource
	// Device enables the failure-buffer accounting check.
	Device BufferSource
	// Contexts enables the per-mutator ownership checks.
	Contexts []ContextView
	// Policy enables the frame-policy accounting check.
	Policy PolicySource
}

// Heap runs every enabled check against the target and returns the report.
// It only reads the target's state and may run at any safe point — the
// torture mode calls it after every collection. It costs one step per
// reachable object and one OS-table lookup per mapped page; a finding's
// text is built only when the finding is recorded.
func Heap(t Target, opt Options) *Report {
	rep := &Report{}
	var spans reachable
	if !opt.SkipGraph && t.Model != nil && t.Roots != nil {
		spans = walkGraph(t, rep)
		checkOverlap(&spans, rep)
	}
	if t.Views != nil {
		checkLineStates(t, &spans, opt, rep)
	}
	if t.Kernel != nil && t.Views != nil && !opt.SkipKernelTable {
		checkKernelTable(t, rep)
	}
	if t.Device != nil && !opt.SkipBuffer {
		checkBuffer(t.Device, rep)
	}
	if t.Contexts != nil {
		checkMutators(t.Contexts, rep)
	}
	if t.Policy != nil {
		checkPolicy(t.Policy, rep)
	}
	return rep
}

// Policy runs only the frame-policy accounting check. It is
// cheap enough to call from a remap-boundary probe.
func Policy(p PolicySource) *Report {
	rep := &Report{}
	checkPolicy(p, rep)
	return rep
}

// checkPolicy validates the kernel's frame-policy accounting: the policy
// has a name, the DRAM borrow ledger balances (debt = borrows - repaid,
// never negative), the perfect-pool and remap counters are non-negative,
// and the stock policy — which never migrates — has performed no remaps.
func checkPolicy(p PolicySource, rep *Report) {
	rep.Checks++
	name := p.PolicyName()
	if name == "" {
		rep.add("policy", "kernel reports an unnamed policy")
	}
	debt, borrows, repaid := p.Debt(), p.Borrows(), p.Repaid()
	if debt < 0 {
		rep.add("policy", "DRAM debt is negative (%d)", debt)
	}
	if debt != borrows-repaid {
		rep.add("policy", "DRAM ledger out of balance: debt %d, borrows %d - repaid %d = %d",
			debt, borrows, repaid, borrows-repaid)
	}
	if n := p.PerfectPCMPagesLeft(); n < 0 {
		rep.add("policy", "perfect-pool counter is negative (%d)", n)
	}
	if n := p.PolicyRemaps(); n < 0 {
		rep.add("policy", "policy remap counter is negative (%d)", n)
	} else if name == "paper" && n != 0 {
		rep.add("policy", "stock policy performed %d remaps", n)
	}
}

// Mutators runs only the per-mutator ownership checks. It is cheap enough
// to call from an allocation-site probe, where the full graph walk would
// be prohibitive.
func Mutators(contexts []ContextView) *Report {
	rep := &Report{}
	checkMutators(contexts, rep)
	return rep
}

// checkMutators validates the per-mutator ownership discipline: every
// context's bump cursors lie inside the context's own block, and no block
// — and no claimed hole — is shared between two contexts. Blocks enter a
// context by exclusive pop, so any sharing means the seam leaked.
func checkMutators(contexts []ContextView, rep *Report) {
	rep.Checks++
	type claim struct {
		ctx   int
		role  string
		block uint64
		lo    uint64
		hi    uint64
	}
	var claims []claim
	for _, c := range contexts {
		for _, role := range []struct {
			name          string
			block, lo, hi uint64
		}{
			{"cur", c.CurBlock, c.CurCursor, c.CurLimit},
			{"over", c.OverBlock, c.OverCursor, c.OverLimit},
		} {
			if role.block == 0 {
				continue
			}
			if role.lo > role.hi {
				rep.add("mutator", "context %d %s cursor %#x beyond its limit %#x",
					c.ID, role.name, role.lo, role.hi)
			}
			if c.BlockSize > 0 && role.hi != 0 {
				end := role.block + uint64(c.BlockSize)
				if role.lo < role.block || role.hi > end {
					rep.add("mutator", "context %d %s hole [%#x,%#x) outside its block %#x",
						c.ID, role.name, role.lo, role.hi, role.block)
				}
			}
			claims = append(claims, claim{c.ID, role.name, role.block, role.lo, role.hi})
		}
	}
	for i := 0; i < len(claims); i++ {
		for j := i + 1; j < len(claims); j++ {
			a, b := claims[i], claims[j]
			if a.ctx == b.ctx {
				continue
			}
			if a.block == b.block {
				rep.add("mutator", "contexts %d (%s) and %d (%s) both own block %#x",
					a.ctx, a.role, b.ctx, b.role, a.block)
				continue
			}
			if a.lo < b.hi && b.lo < a.hi && a.hi != 0 && b.hi != 0 {
				rep.add("mutator", "context %d %s hole [%#x,%#x) overlaps context %d %s hole [%#x,%#x)",
					a.ctx, a.role, a.lo, a.hi, b.ctx, b.role, b.lo, b.hi)
			}
		}
	}
}

// walkGraph validates every object reachable from the roots and returns
// their spans. Corrupt references are reported, not followed.
func walkGraph(t Target, rep *Report) reachable {
	rep.Checks++
	m := t.Model
	size := m.S.Size()
	w := newCensusWalk(size)
	spans := reachable{m: m, bases: make([]uint64, len(w.visited))}
	// odd is the visited set of unaligned addresses, which no allocator hands
	// out and the word bitset cannot hold; nil until a corrupt heap has one.
	var odd map[heap.Addr]bool
	// push queues the referent a of a slot of parent, of type pty (nil for a
	// root slot). The referring object is described only in a finding, so a
	// slot costs no formatting.
	push := func(a, parent heap.Addr, pty *heap.Type) {
		switch {
		case a == 0:
			return
		case a > w.last:
			from := "roots"
			if pty != nil {
				from = fmt.Sprintf("%#x (%s)", parent, pty.Name)
			}
			rep.add("graph", "reference %#x from %s points outside the space (size %#x)", a, from, size)
			return
		case a%heap.WordSize == 0:
			if !w.first(a) {
				return
			}
		case odd[a]:
			return
		default:
			if odd == nil {
				odd = make(map[heap.Addr]bool)
			}
			odd[a] = true
		}
		w.stack = append(w.stack, a)
	}
	t.Roots.Each(func(slot *heap.Addr) { push(*slot, 0, nil) })

	for len(w.stack) > 0 {
		a := w.pop()
		h := m.S.Load64(a)
		if _, fwd := heap.HeaderForwarded(h); fwd {
			rep.add("graph", "reachable reference %#x holds a forwarding pointer (stale after evacuation)", a)
			continue
		}
		ty, ok := m.T.Lookup(uint16(h >> 24 & 0xFFFF))
		if !ok {
			rep.add("graph", "object %#x has unregistered type index %d", a, uint16(h>>24&0xFFFF))
			continue
		}
		osize := heap.SizeFromHeader(h)
		if osize < heap.HeaderSize || heap.Addr(osize) > size-a {
			rep.add("graph", "object %#x (%s) has impossible size %d", a, ty.Name, osize)
			continue
		}
		switch ty.Kind {
		case heap.KindFixed:
			if osize != heap.FixedSize(ty) {
				rep.add("graph", "object %#x: size %d does not match fixed type %s (%d)",
					a, osize, ty.Name, heap.FixedSize(ty))
				continue
			}
		default:
			if osize < heap.ArrayHeaderSize {
				rep.add("graph", "array %#x (%s) smaller than the array header", a, ty.Name)
				continue
			}
			n := m.ArrayLen(a)
			if n < 0 || heap.ArraySize(ty, n) != osize {
				rep.add("graph", "array %#x (%s): %d elements inconsistent with size %d",
					a, ty.Name, n, osize)
				continue
			}
		}
		if e := heap.HeaderEpoch(h); t.Epoch != 0 && e != t.Epoch {
			rep.add("epoch", "reachable object %#x (%s) carries epoch %d, want %d",
				a, ty.Name, e, t.Epoch)
		}
		rep.Objects++
		spans.add(a)
		// The slots heap.Model.RefSlots lists, in its order.
		switch ty.Kind {
		case heap.KindFixed:
			for _, off := range ty.RefOffsets {
				push(heap.Addr(m.S.Load64(a+heap.Addr(off))), a, ty)
			}
		case heap.KindRefArray:
			for i, n := 0, m.ArrayLen(a); i < n; i++ {
				push(heap.Addr(m.S.Load64(a+heap.ArrayHeaderSize+heap.Addr(i*heap.WordSize))), a, ty)
			}
		}
	}
	slices.Sort(spans.odd)
	return spans
}

// reachable is the set of objects the walk validated, listed in address
// order: one bit per word at each aligned base, and the unaligned bases
// only a corrupt heap has, sorted, merged in. An object's size is read
// back from its header, which the walk validated and nothing writes while
// the verifier runs.
type reachable struct {
	m     *heap.Model
	bases []uint64
	odd   []heap.Addr
}

func (r *reachable) add(a heap.Addr) {
	if a%heap.WordSize == 0 {
		bitset.Set(r.bases, int(a/heap.WordSize))
	} else {
		r.odd = append(r.odd, a)
	}
}

// each calls f on every reachable object in ascending address order.
func (r *reachable) each(f func(a heap.Addr, size int)) {
	visit := func(a heap.Addr) { f(a, heap.SizeFromHeader(r.m.S.Load64(a))) }
	odd, n := r.odd, len(r.bases)*64
	for i := bitset.NextSet(r.bases, 0, n); i < n; i = bitset.NextSet(r.bases, i+1, n) {
		a := heap.Addr(i) * heap.WordSize
		for ; len(odd) > 0 && odd[0] < a; odd = odd[1:] {
			visit(odd[0])
		}
		visit(a)
	}
	for _, a := range odd {
		visit(a)
	}
}

// checkOverlap reports reachable objects whose extents intersect their
// successor's in address order.
func checkOverlap(spans *reachable, rep *Report) {
	rep.Checks++
	var prev heap.Addr // no object lives at 0
	prevSize := 0
	spans.each(func(a heap.Addr, size int) {
		if prev != 0 && prev+heap.Addr(prevSize) > a {
			rep.add("overlap", "objects %#x (+%d) and %#x overlap", prev, prevSize, a)
		}
		prev, prevSize = a, size
	})
}

// checkLineStates validates the Immix views internally (counters vs
// states) and against the reachable set: no reachable object on a free
// line, none on a failed line (§4.2: a collection evacuates or retires
// affected data before the verifier runs).
func checkLineStates(t Target, spans *reachable, opt Options, rep *Report) {
	rep.Checks++
	for _, v := range t.Views {
		free, failed := 0, 0
		for _, s := range v.States {
			switch s {
			case LineFree:
				free++
			case LineFailed:
				failed++
			}
		}
		if free != v.FreeLines {
			rep.add("line-state", "block %#x: %d free lines in states, counter says %d",
				v.Base, free, v.FreeLines)
		}
		if failed != v.Failed {
			rep.add("line-state", "block %#x: %d failed lines in states, counter says %d",
				v.Base, failed, v.Failed)
		}
	}
	if opt.SkipGraph {
		return
	}
	spans.each(func(a heap.Addr, size int) {
		v := viewOf(t.Views, uint64(a))
		if v == nil {
			return // LOS or mark-sweep space
		}
		first := int(uint64(a)-v.Base) / v.LineSize
		last := int(uint64(a)+uint64(size)-1-v.Base) / v.LineSize
		if last >= len(v.States) {
			last = len(v.States) - 1
		}
		for l := first; l <= last; l++ {
			switch v.States[l] {
			case LineFree:
				rep.add("line-state", "reachable object %#x overlaps free line %d of block %#x",
					a, l, v.Base)
			case LineFailed:
				if !opt.SkipFailedLine {
					rep.add("failed-line", "reachable object %#x overlaps failed line %d of block %#x",
						a, l, v.Base)
				}
			}
		}
	})
}

func viewOf(views []BlockView, a uint64) *BlockView {
	for i := range views {
		v := &views[i]
		if a >= v.Base && a < v.Base+uint64(len(v.States)*v.LineSize) {
			return v
		}
	}
	return nil
}

// checkKernelTable cross-checks the runtime's line states against the OS
// failure table: a line the runtime still uses must have clean backing,
// and a retired line must have at least one failed hardware line behind it
// (UnfailPage clears both sides together when a frame is replaced). The
// table is asked once per page, not once per line.
func checkKernelTable(t Target, rep *Report) {
	rep.Checks++
	for _, v := range t.Views {
		bits := v.LineSize / failmap.LineSize
		page := ^uint64(0)
		var frame int
		var bm uint64
		var mapped bool
		for l, s := range v.States {
			vaddr := v.Base + uint64(l*v.LineSize)
			if p := vaddr / failmap.PageSize; p != page {
				page = p
				if frame, _, mapped = t.Kernel.Translate(vaddr); mapped {
					bm = t.Kernel.FrameFailedLines(frame)
				}
			}
			if !mapped {
				rep.add("kernel-table", "block %#x line %d is unmapped at %#x", v.Base, l, vaddr)
				continue
			}
			off := vaddr % failmap.PageSize
			mask := (uint64(1)<<uint(bits) - 1) << uint(off/failmap.LineSize)
			switch {
			case s != LineFailed && bm&mask != 0:
				rep.add("kernel-table",
					"block %#x line %d (%c) is usable to the runtime but the OS table marks %#x failed (frame %d)",
					v.Base, l, s, bm&mask, frame)
			case s == LineFailed && bm&mask == 0:
				rep.add("kernel-table",
					"block %#x line %d is retired but its OS backing (frame %d) is clean",
					v.Base, l, frame)
			}
		}
	}
}

// checkBuffer validates the failure-buffer drain accounting.
func checkBuffer(d BufferSource, rep *Report) {
	rep.Checks++
	pushed, invalidated, drained := d.BufferAccounting()
	if got, want := uint64(d.BufferLen()), pushed-invalidated-drained; got != want {
		rep.add("buffer", "buffer holds %d entries, accounting says %d (pushed %d - invalidated %d - drained %d)",
			got, want, pushed, invalidated, drained)
	}
	if d.Stalled() && d.BufferLen() < d.Watermark() {
		rep.add("buffer", "device stalled below the watermark (%d < %d)", d.BufferLen(), d.Watermark())
	}
	if !d.Stalled() && d.BufferLen() >= d.Watermark() {
		rep.add("buffer", "device not stalled at the watermark (%d >= %d)", d.BufferLen(), d.Watermark())
	}
	for _, line := range d.BufferedLines() {
		if !d.Unavailable(line) {
			rep.add("buffer", "buffered line %d is still available to software", line)
		}
	}
}
