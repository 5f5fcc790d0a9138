package core

import (
	"math/bits"
	"sync/atomic"

	"wearmem/internal/bitset"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
)

// block is the per-block metadata of the Immix space: Fig. 2's line mark
// table. Liveness is epoch-stamped per line (a line is live when it was
// marked at the current collection epoch); failure-aware Immix adds the
// failed state (§4.2), which permanently removes a line from allocation
// exactly like a live line. avail tracks lines currently offered to the
// bump allocator; it is recomputed by each sweep and consumed as holes are
// claimed.
//
// All three line states are uint64 bitsets scanned a word at a time: the
// hole search in findHole is the allocator's hottest loop, and the word
// scan turns it from a per-line branchy walk into TrailingZeros64 hops.
// Liveness is the marked bitmap qualified by markEpoch — a line is live at
// epoch e iff markEpoch == e and its marked bit is set; stamping at a newer
// epoch clears the bitmap first, which is exactly the semantics the old
// per-line []uint16 epoch array provided.
type block struct {
	mem   BlockMem
	lines int
	words int
	tail  uint64 // valid-bit mask of the final bitset word

	marked    []uint64 // lines stamped live at markEpoch
	markEpoch uint16
	failed    []uint64
	avail     []uint64

	freeLines   int  // available lines after the last sweep / claims
	failedLines int  // permanently failed lines
	holes       int  // maximal runs of available lines after the last sweep
	evacuate    bool // defragmentation candidate for the current collection
	perfect     bool // no failed lines
	inRecycle   bool // currently on the recycled list
	inFree      bool // currently on the local free list
}

// failedUnits folds a block's PCM failure map into a bitset over its n
// allocation units of unit bytes (Immix lines, mark-sweep cells): a unit
// fails when any PCM line overlapping it has failed, the §6.3 false-failure
// effect. It visits only the failed PCM lines, so a nil or perfect map
// costs nothing; a unit need not be a multiple of the PCM line.
func failedUnits(fm *failmap.Map, unit, n int) (failed []uint64, count int) {
	failed = make([]uint64, bitset.Words(n))
	if fm == nil {
		return failed, 0
	}
	for l := fm.NextFailed(0); l < fm.Lines(); {
		lo := l * failmap.LineSize / unit
		if lo >= n {
			break // the block's tail past its last whole unit
		}
		end := lo + 1
		for end < n && end*unit < (l+1)*failmap.LineSize {
			end++
		}
		bitset.SetRange(failed, lo, end)
		// Resume at the PCM line holding the first byte of unit end.
		l = fm.NextFailed(max(l+1, end*unit/failmap.LineSize))
	}
	return failed, bitset.Count(failed, 0, n)
}

// newBlock builds metadata for freshly acquired memory, folding the PCM
// failure map into failed line states at the configured Immix line
// granularity.
func newBlock(mem BlockMem, blockSize, lineSize int) *block {
	n := blockSize / lineSize
	w := bitset.Words(n)
	b := &block{
		mem:    mem,
		lines:  n,
		words:  w,
		tail:   bitset.TailMask(n),
		marked: make([]uint64, w),
		avail:  make([]uint64, w),
	}
	b.failed, b.failedLines = failedUnits(mem.Fail, lineSize, n)
	b.perfect = b.failedLines == 0
	b.freeLines = n - b.failedLines
	bitset.SetRange(b.avail, 0, n)
	for i, f := range b.failed {
		b.avail[i] &^= f
	}
	b.holes = b.countHoles()
	return b
}

// availAt reports whether line i is currently available for allocation.
func (b *block) availAt(i int) bool { return bitset.Get(b.avail, i) }

// failedAt reports whether line i has permanently failed.
func (b *block) failedAt(i int) bool { return bitset.Get(b.failed, i) }

// markedAt reports whether line i was stamped live at the given epoch.
func (b *block) markedAt(i int, epoch uint16) bool {
	return b.markEpoch == epoch && bitset.Get(b.marked, i)
}

// stamp prepares the mark bitmap for the given epoch: marked bits only
// have meaning at markEpoch, so advancing the epoch clears them.
func (b *block) stamp(epoch uint16) {
	if b.markEpoch != epoch {
		clear(b.marked)
		b.markEpoch = epoch
	}
}

// countHoles counts maximal runs of available lines by counting 0→1
// transitions across the bitset, carrying the last bit between words.
func (b *block) countHoles() int {
	holes := 0
	prev := uint64(0) // the bit preceding word w's bit 0
	for w := 0; w < b.words; w++ {
		x := b.avail[w]
		holes += bits.OnesCount64(x &^ (x<<1 | prev))
		prev = x >> 63
	}
	return holes
}

// findHole scans for a run of available lines starting at or after line
// `from` whose total bytes fit size. It returns the run bounds and the
// number of unavailable or too-small lines skipped, or ok=false when no
// such run exists in the block.
func (b *block) findHole(from, size, lineSize int) (start, end, skipped int, ok bool) {
	need := (size + lineSize - 1) / lineSize
	i := from
	for i < b.lines {
		j := bitset.NextSet(b.avail, i, b.lines)
		skipped += j - i
		if j == b.lines {
			break
		}
		k := bitset.NextClear(b.avail, j, b.lines)
		if k-j >= need {
			return j, k, skipped, true
		}
		skipped += k - j
		i = k
	}
	return 0, 0, skipped, false
}

// claim removes lines [start, end) from availability.
func (b *block) claim(start, end int) {
	if start >= end {
		return
	}
	for w := start >> 6; w <= (end-1)>>6; w++ {
		m := bitset.Mask(w, start, end)
		if b.avail[w]&m != m {
			panic("core: claiming unavailable line")
		}
		b.avail[w] &^= m
		b.freeLines -= bits.OnesCount64(m)
	}
}

// markLines stamps the lines overlapped by [addr, addr+size) live at the
// given epoch. base is the block's base address.
func (b *block) markLines(base, addr heap.Addr, size, lineSize int, epoch uint16) {
	first := int(addr-base) / lineSize
	last := int(addr-base+heap.Addr(size)-1) / lineSize
	b.stamp(epoch)
	bitset.SetRange(b.marked, first, last+1)
}

// markLinesAtomic is markLines for the threaded trace: concurrent workers
// marking objects on the same block OR their line bits in with CAS loops
// (the toolchain floor predates atomic.OrUint64). The lazy epoch stamp is
// skipped — a concurrent clear would race — so every block must have been
// stamped before the workers spawned (Immix.prestampBlocks).
func (b *block) markLinesAtomic(base, addr heap.Addr, size, lineSize int) {
	first := int(addr-base) / lineSize
	last := int(addr-base+heap.Addr(size)-1) / lineSize
	for w := first >> 6; w <= last>>6; w++ {
		m := bitset.Mask(w, first, last+1)
		for {
			old := atomic.LoadUint64(&b.marked[w])
			if old&m == m || atomic.CompareAndSwapUint64(&b.marked[w], old, old|m) {
				break
			}
		}
	}
}

// sweep recomputes availability after a collection: a line is available
// when it has not failed and was not stamped at the current epoch. It
// returns the number of available lines.
func (b *block) sweep(epoch uint16) int {
	b.stamp(epoch)
	free := 0
	for w := 0; w < b.words; w++ {
		x := ^(b.failed[w] | b.marked[w])
		if w == b.words-1 {
			x &= b.tail
		}
		b.avail[w] = x
		free += bits.OnesCount64(x)
	}
	b.freeLines = free
	b.holes = b.countHoles()
	b.evacuate = false
	return b.freeLines
}

// usable reports whether the block has any non-failed line at all.
func (b *block) usable() bool {
	for w := 0; w < b.words; w++ {
		valid := ^uint64(0)
		if w == b.words-1 {
			valid = b.tail
		}
		if ^b.failed[w]&valid != 0 {
			return true
		}
	}
	return false
}

// failLine marks a line permanently failed (dynamic failure, §4.2) and
// reports whether it may hold live data, requiring evacuation. Any line
// not currently available for allocation may carry data: lines marked at
// the current epoch, and claimed lines holding objects allocated since
// the last collection (which are unmarked until they are traced).
func (b *block) failLine(line int) (wasLive bool) {
	wasLive = !b.availAt(line)
	if b.failedAt(line) {
		return false
	}
	bitset.Set(b.failed, line)
	b.failedLines++
	if b.availAt(line) {
		bitset.Clear(b.avail, line)
		b.freeLines--
	}
	b.perfect = false
	return wasLive
}
