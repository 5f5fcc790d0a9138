package core

import (
	"fmt"
	"math/rand"
	"testing"

	"wearmem/internal/bitset"
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
)

// Differential test of the bitset line metadata against the original
// []bool implementation: every block operation must agree with the
// reference across randomized line patterns, including blocks whose line
// count does not fill the last bitset word and fully-failed blocks.

// refBlock is the retained []bool reference implementation of the Immix
// line mark table, verbatim from before the bitset rewrite.
type refBlock struct {
	lines     int
	lineEpoch []uint16
	failed    []bool
	avail     []bool

	freeLines   int
	failedLines int
	holes       int
	perfect     bool
}

func newRefBlock(mem BlockMem, blockSize, lineSize int) *refBlock {
	n := blockSize / lineSize
	b := &refBlock{
		lines:     n,
		lineEpoch: make([]uint16, n),
		failed:    make([]bool, n),
		avail:     make([]bool, n),
		perfect:   true,
	}
	for i := 0; i < n; i++ {
		if mem.Fail != nil && mem.Fail.AnyFailedIn(i*lineSize, lineSize) {
			b.failed[i] = true
			b.failedLines++
			b.perfect = false
		} else {
			b.avail[i] = true
			b.freeLines++
		}
	}
	b.holes = b.countHoles()
	return b
}

func (b *refBlock) countHoles() int {
	holes := 0
	in := false
	for i := 0; i < b.lines; i++ {
		if b.avail[i] {
			if !in {
				holes++
				in = true
			}
		} else {
			in = false
		}
	}
	return holes
}

func (b *refBlock) findHole(from, size, lineSize int) (start, end, skipped int, ok bool) {
	i := from
	for i < b.lines {
		if !b.avail[i] {
			skipped++
			i++
			continue
		}
		j := i
		for j < b.lines && b.avail[j] {
			j++
		}
		if (j-i)*lineSize >= size {
			return i, j, skipped, true
		}
		skipped += j - i
		i = j
	}
	return 0, 0, skipped, false
}

func (b *refBlock) claim(start, end int) {
	for i := start; i < end; i++ {
		if !b.avail[i] {
			panic("ref: claiming unavailable line")
		}
		b.avail[i] = false
		b.freeLines--
	}
}

func (b *refBlock) markLines(base, addr heap.Addr, size, lineSize int, epoch uint16) {
	first := int(addr-base) / lineSize
	last := int(addr-base+heap.Addr(size)-1) / lineSize
	for i := first; i <= last; i++ {
		b.lineEpoch[i] = epoch
	}
}

func (b *refBlock) sweep(epoch uint16) int {
	b.freeLines = 0
	for i := 0; i < b.lines; i++ {
		b.avail[i] = !b.failed[i] && b.lineEpoch[i] != epoch
		if b.avail[i] {
			b.freeLines++
		}
	}
	b.holes = b.countHoles()
	return b.freeLines
}

func (b *refBlock) usable() bool {
	for i := 0; i < b.lines; i++ {
		if !b.failed[i] {
			return true
		}
	}
	return false
}

func (b *refBlock) failLine(line int) (wasLive bool) {
	wasLive = !b.avail[line]
	if b.failed[line] {
		return false
	}
	b.failed[line] = true
	b.failedLines++
	if b.avail[line] {
		b.avail[line] = false
		b.freeLines--
	}
	b.perfect = false
	return wasLive
}

// compareBlocks checks every observable of the bitset block against the
// reference at the given epoch.
func compareBlocks(t *testing.T, tag string, b *block, ref *refBlock, epoch uint16) {
	t.Helper()
	if b.freeLines != ref.freeLines || b.failedLines != ref.failedLines {
		t.Fatalf("%s: counts free=%d/%d failed=%d/%d",
			tag, b.freeLines, ref.freeLines, b.failedLines, ref.failedLines)
	}
	if b.perfect != ref.perfect {
		t.Fatalf("%s: perfect=%v ref=%v", tag, b.perfect, ref.perfect)
	}
	if b.usable() != ref.usable() {
		t.Fatalf("%s: usable=%v ref=%v", tag, b.usable(), ref.usable())
	}
	if got, want := b.countHoles(), ref.countHoles(); got != want {
		t.Fatalf("%s: countHoles=%d ref=%d", tag, got, want)
	}
	for i := 0; i < b.lines; i++ {
		if b.availAt(i) != ref.avail[i] {
			t.Fatalf("%s: line %d avail=%v ref=%v", tag, i, b.availAt(i), ref.avail[i])
		}
		if b.failedAt(i) != ref.failed[i] {
			t.Fatalf("%s: line %d failed=%v ref=%v", tag, i, b.failedAt(i), ref.failed[i])
		}
		if b.markedAt(i, epoch) != (ref.lineEpoch[i] == epoch) {
			t.Fatalf("%s: line %d marked=%v ref=%v",
				tag, i, b.markedAt(i, epoch), ref.lineEpoch[i] == epoch)
		}
	}
}

func TestBlockBitsetMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		blockSize int
		lineSize  int
		failProb  float64
	}{
		{"l256-exact-words", 32 << 10, 256, 0.15},  // 128 lines = 2 words
		{"l64-exact-words", 32 << 10, 64, 0.15},    // 512 lines = 8 words
		{"l64-partial-word", 6 << 10, 64, 0.15},    // 96 lines = 1.5 words
		{"l128-partial-word", 20 << 10, 128, 0.30}, // 160 lines = 2.5 words
		{"l64-single-partial", 2 << 10, 64, 0.25},  // 32 lines < 1 word
		{"no-failures", 32 << 10, 256, 0},          //
		{"dense-failures", 32 << 10, 64, 0.85},     //
		{"fully-failed", 32 << 10, 256, 1},         // every line failed
		{"fully-failed-partial", 6 << 10, 64, 1},   //
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			mem := BlockMem{Base: 0, Fail: failMapAt(tc.blockSize, tc.failProb, rng)}
			b := newBlock(mem, tc.blockSize, tc.lineSize)
			ref := newRefBlock(mem, tc.blockSize, tc.lineSize)
			epoch := uint16(1)
			compareBlocks(t, "init", b, ref, epoch)

			for op := 0; op < 4000; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // findHole (+ claim when found)
					from := rng.Intn(b.lines + 1)
					size := 1 + rng.Intn(4*tc.lineSize)
					s1, e1, sk1, ok1 := b.findHole(from, size, tc.lineSize)
					s2, e2, sk2, ok2 := ref.findHole(from, size, tc.lineSize)
					if s1 != s2 || e1 != e2 || sk1 != sk2 || ok1 != ok2 {
						t.Fatalf("op %d: findHole(%d,%d) = (%d,%d,%d,%v) ref (%d,%d,%d,%v)",
							op, from, size, s1, e1, sk1, ok1, s2, e2, sk2, ok2)
					}
					if ok1 {
						b.claim(s1, e1)
						ref.claim(s2, e2)
						compareBlocks(t, "claim", b, ref, epoch)
					}
				case 4, 5: // markLines over a random object extent
					line := rng.Intn(b.lines)
					addr := heap.Addr(line*tc.lineSize + rng.Intn(tc.lineSize))
					max := tc.blockSize - int(addr)
					size := 1 + rng.Intn(max)
					b.markLines(0, addr, size, tc.lineSize, epoch)
					ref.markLines(0, addr, size, tc.lineSize, epoch)
					compareBlocks(t, "markLines", b, ref, epoch)
				case 6: // dynamic line failure
					line := rng.Intn(b.lines)
					w1 := b.failLine(line)
					w2 := ref.failLine(line)
					if w1 != w2 {
						t.Fatalf("op %d: failLine(%d) = %v ref %v", op, line, w1, w2)
					}
					compareBlocks(t, "failLine", b, ref, epoch)
				default: // sweep, sometimes at a fresh epoch
					if rng.Intn(2) == 0 {
						epoch++
						// The reference keeps stale epochs around; the bitset
						// clears on stamp. Both must agree on liveness at the
						// *current* epoch, which is all sweep consults.
					}
					n1 := b.sweep(epoch)
					n2 := ref.sweep(epoch)
					if n1 != n2 {
						t.Fatalf("op %d: sweep(%d) = %d ref %d", op, epoch, n1, n2)
					}
					compareBlocks(t, "sweep", b, ref, epoch)
				}
			}
		})
	}
}

// TestBlockClaimPanicsOnUnavailable pins the claim invariant the bump
// allocator relies on: double-claiming is a bug, not a silent no-op.
func TestBlockClaimPanicsOnUnavailable(t *testing.T) {
	b := newBlock(BlockMem{}, 32<<10, 256)
	b.claim(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("claiming a claimed line did not panic")
		}
	}()
	b.claim(2, 6)
}

// TestBlockFindHoleAtTailWord exercises runs that end exactly at a partial
// final word boundary.
func TestBlockFindHoleAtTailWord(t *testing.T) {
	const blockSize, lineSize = 6 << 10, 64 // 96 lines: last word holds 32
	b := newBlock(BlockMem{}, blockSize, lineSize)
	// Claim everything except the final three lines.
	b.claim(0, 93)
	start, end, skipped, ok := b.findHole(0, 3*lineSize, lineSize)
	if !ok || start != 93 || end != 96 || skipped != 93 {
		t.Fatalf("tail hole = (%d,%d,%d,%v), want (93,96,93,true)", start, end, skipped, ok)
	}
	// A four-line request must not fit and must report every line skipped.
	if _, _, skipped, ok = b.findHole(0, 4*lineSize, lineSize); ok || skipped != 96 {
		t.Fatalf("oversized hole: ok=%v skipped=%d, want false/96", ok, skipped)
	}
}

// failMapAt fails each PCM line of a block with probability rate.
func failMapAt(blockSize int, rate float64, rng *rand.Rand) *failmap.Map {
	fm := failmap.New(blockSize)
	for l := 0; l < fm.Lines(); l++ {
		if rng.Float64() < rate {
			fm.SetLineFailed(l)
		}
	}
	return fm
}

// TestNewBlockVisitsOnlyFailedLines holds the block constructor, which
// walks the failed PCM lines, to the reference's AnyFailedIn per Immix
// line, at every line size from one PCM line to a whole block.
func TestNewBlockVisitsOnlyFailedLines(t *testing.T) {
	const blockSize = 32 << 10
	for lineSize := failmap.LineSize; lineSize <= blockSize; lineSize *= 2 {
		for _, rate := range []float64{0, 0.01, 0.1, 0.5, 1} {
			rng := rand.New(rand.NewSource(int64(lineSize) + int64(rate*100)))
			mem := BlockMem{Fail: failMapAt(blockSize, rate, rng)}
			tag := fmt.Sprintf("line %d rate %v", lineSize, rate)
			b, ref := newBlock(mem, blockSize, lineSize), newRefBlock(mem, blockSize, lineSize)
			compareBlocks(t, tag, b, ref, 1)
			if b.holes != ref.holes {
				t.Fatalf("%s: holes=%d ref=%d", tag, b.holes, ref.holes)
			}
		}
		compareBlocks(t, "no map", newBlock(BlockMem{}, blockSize, lineSize), newRefBlock(BlockMem{}, blockSize, lineSize), 1)
	}
}

// TestNewMSBlockVisitsOnlyFailedLines is the same law for mark-sweep cells,
// which are not multiples of the PCM line (16 to 8192 bytes, 48 and 96
// among them) and leave a tail of the block in no cell.
func TestNewMSBlockVisitsOnlyFailedLines(t *testing.T) {
	const blockSize = 32 << 10
	for class, cs := range sizeClasses {
		for _, rate := range []float64{0, 0.01, 0.1, 0.5, 1} {
			rng := rand.New(rand.NewSource(int64(cs) + int64(rate*100)))
			mem := BlockMem{Fail: failMapAt(blockSize, rate, rng)}
			b := newMSBlock(mem, blockSize, class)
			usableN := 0
			for i := 0; i < blockSize/cs; i++ {
				want := !mem.Fail.AnyFailedIn(i*cs, cs)
				if want {
					usableN++
				}
				if got := bitset.Get(b.usable, i); got != want {
					t.Fatalf("class %d rate %v: cell %d usable=%v, per-cell AnyFailedIn says %v", cs, rate, i, got, want)
				}
			}
			if b.usableN != usableN || b.freeN != usableN || b.cells != blockSize/cs {
				t.Fatalf("class %d rate %v: usableN=%d freeN=%d, want %d", cs, rate, b.usableN, b.freeN, usableN)
			}
			if tail := b.usable[b.words-1] &^ bitset.TailMask(b.cells); tail != 0 {
				t.Fatalf("class %d rate %v: usable bits %#x past the last cell", cs, rate, tail)
			}
		}
		if b := newMSBlock(BlockMem{}, blockSize, class); b.usableN != b.cells || bitset.Count(b.usable, 0, 64*b.words) != b.cells {
			t.Fatalf("class %d without a map: %d of %d cells usable", cs, b.usableN, b.cells)
		}
	}
}
