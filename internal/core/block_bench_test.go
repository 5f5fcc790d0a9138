package core

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/heap"
	"wearmem/internal/stats"
)

// benchSink keeps benchmarked constructors from being optimised away.
var benchSink int

// fragmentedPair builds a block and its []bool reference twin with the
// ragged availability a mid-run hole search actually sees: 10% failed
// lines plus randomly claimed spans.
func fragmentedPair(blockSize, lineSize int, seed int64) (*block, *refBlock) {
	rng := rand.New(rand.NewSource(seed))
	mem := BlockMem{Base: 0, Fail: failMapAt(blockSize, 0.10, rng)}
	b := newBlock(mem, blockSize, lineSize)
	ref := newRefBlock(mem, blockSize, lineSize)
	for i := 0; i < b.lines; i++ {
		if rng.Intn(3) != 0 {
			continue
		}
		start, end, _, ok := b.findHole(i, lineSize, lineSize)
		if !ok {
			break
		}
		span := 1 + rng.Intn(end-start)
		b.claim(start, start+span)
		ref.claim(start, start+span)
		i = start + span
	}
	return b, ref
}

// densePair builds a nearly-full block — the end-of-cycle state where hole
// search must skip long claimed stretches — leaving one free line every 61.
func densePair(blockSize, lineSize int) (*block, *refBlock) {
	mem := BlockMem{}
	b := newBlock(mem, blockSize, lineSize)
	ref := newRefBlock(mem, blockSize, lineSize)
	for i := 0; i < b.lines; i += 61 {
		end := i + 60
		if end > b.lines {
			end = b.lines
		}
		b.claim(i, end)
		ref.claim(i, end)
	}
	return b, ref
}

// BenchmarkFindHole compares the word-scan hole search against the
// retained []bool reference. Each iteration walks every hole in the block;
// "ragged" alternates short free and claimed runs (mid-run state), "dense"
// is a nearly-full block with isolated free lines (end-of-cycle state,
// where skipping claimed stretches dominates).
func BenchmarkFindHole(bm *testing.B) {
	const blockSize, lineSize = 32 << 10, 64 // 512 lines
	raggedB, raggedRef := fragmentedPair(blockSize, lineSize, 42)
	denseB, denseRef := densePair(blockSize, lineSize)
	sizes := []int{lineSize, 4 * lineSize}

	walkBitset := func(bm *testing.B, b *block) {
		for i := 0; i < bm.N; i++ {
			for _, size := range sizes {
				from := 0
				for {
					_, end, _, ok := b.findHole(from, size, lineSize)
					if !ok {
						break
					}
					from = end
				}
			}
		}
	}
	walkRef := func(bm *testing.B, ref *refBlock) {
		for i := 0; i < bm.N; i++ {
			for _, size := range sizes {
				from := 0
				for {
					_, end, _, ok := ref.findHole(from, size, lineSize)
					if !ok {
						break
					}
					from = end
				}
			}
		}
	}
	bm.Run("ragged/bitset", func(bm *testing.B) { walkBitset(bm, raggedB) })
	bm.Run("ragged/boolref", func(bm *testing.B) { walkRef(bm, raggedRef) })
	bm.Run("dense/bitset", func(bm *testing.B) { walkBitset(bm, denseB) })
	bm.Run("dense/boolref", func(bm *testing.B) { walkRef(bm, denseRef) })
}

// BenchmarkNewBlock builds a block's line states from a failure map with
// 10% of its PCM lines failed, at the default 256 B Immix line: walking
// the failed lines against the reference's AnyFailedIn per Immix line.
func BenchmarkNewBlock(bm *testing.B) {
	const blockSize, lineSize = 32 << 10, 256
	mem := BlockMem{Fail: failMapAt(blockSize, 0.10, rand.New(rand.NewSource(45)))}
	bm.Run("failed-lines", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			benchSink += newBlock(mem, blockSize, lineSize).freeLines
		}
	})
	bm.Run("per-line-ref", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			benchSink += newRefBlock(mem, blockSize, lineSize).freeLines
		}
	})
}

// BenchmarkSweep compares a full-block sweep (mark bitmap consulted line
// by line vs word at a time) after a half-marked mutator epoch.
func BenchmarkSweep(bm *testing.B) {
	const blockSize, lineSize = 32 << 10, 64
	b, ref := fragmentedPair(blockSize, lineSize, 43)
	epoch := uint16(1)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < b.lines/2; i++ {
		line := rng.Intn(b.lines)
		addr := heap.Addr(line * lineSize)
		b.markLines(0, addr, lineSize, 6, epoch) // 64-byte lines
		ref.markLines(0, addr, lineSize, lineSize, epoch)
	}
	bm.Run("bitset", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			b.sweep(epoch)
		}
	})
	bm.Run("boolref", func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			ref.sweep(epoch)
		}
	})
}

// BenchmarkAllocTight drives the Immix bump allocator end to end on a
// failure-ridden heap under memory pressure, so hole search, claim, and
// sweep all sit on the measured path.
func BenchmarkAllocTight(bm *testing.B) {
	space := heap.NewSpace()
	model := &heap.Model{S: space, T: heap.NewTypeTable()}
	clock := stats.NewClock(stats.DefaultCosts())
	inject := failmap.New(32 << 20)
	failmap.GenerateUniform(inject, 0.15, rand.New(rand.NewSource(9)))
	mem := newTestMem(space, 32<<10, 512, inject) // 2 MB budget
	cfg := Config{Clock: clock, Model: model, Mem: mem,
		FailureAware: true, HeadroomBlocks: 2}
	ix := NewImmix(cfg)
	node := model.T.Register(&heap.Type{
		Name: "node", Kind: heap.KindFixed, Size: 40, RefOffsets: []int{8, 16},
	})
	roots := NewRootSet()
	keep := make([]heap.Addr, 256)
	for i := range keep {
		roots.Add(&keep[i])
	}
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		a, err := ix.Alloc(node, 40, 0)
		if err != nil {
			ix.Collect(true, roots)
			if a, err = ix.Alloc(node, 40, 0); err != nil {
				bm.Fatal(err)
			}
		}
		keep[i%len(keep)] = a
	}
}
