package core

import (
	"wearmem/internal/failmap"
	"wearmem/internal/heap"
)

// testMem is a simple Memory for the core tests: block-aligned bump
// allocation over a heap.Space, an optional injected failure map consumed
// block by block, and a page budget to trigger ErrHeapFull.
type testMem struct {
	space     *heap.Space
	blockSize int
	next      heap.Addr
	budget    int // pages; negative means unlimited
	inject    *failmap.Map
	injectOff int
	pool      []BlockMem
}

func newTestMem(space *heap.Space, blockSize, budgetPages int, inject *failmap.Map) *testMem {
	return &testMem{
		space:     space,
		blockSize: blockSize,
		next:      heap.Addr(blockSize), // keep 0 unmapped
		budget:    budgetPages,
		inject:    inject,
	}
}

func (m *testMem) pagesPerBlock() int { return m.blockSize / failmap.PageSize }

func (m *testMem) take(pages int) bool {
	if m.budget < 0 {
		return true
	}
	if m.budget < pages {
		return false
	}
	m.budget -= pages
	return true
}

func (m *testMem) AcquireBlock(perfect bool) (BlockMem, error) {
	if !perfect {
		for len(m.pool) > 0 {
			b := m.pool[len(m.pool)-1]
			m.pool = m.pool[:len(m.pool)-1]
			return b, nil
		}
	}
	if !m.take(m.pagesPerBlock()) {
		return BlockMem{}, ErrHeapFull
	}
	base := m.next
	m.next += heap.Addr(m.blockSize)
	m.space.Ensure(m.next)
	var fm *failmap.Map
	if !perfect && m.inject != nil {
		if m.injectOff+m.blockSize <= m.inject.Size() {
			fm = failmap.New(m.blockSize)
			for p := 0; p < m.pagesPerBlock(); p++ {
				fm.CopyPage(p, m.inject, m.injectOff/failmap.PageSize+p)
			}
			m.injectOff += m.blockSize
		}
	}
	return BlockMem{Base: base, Fail: fm, Fresh: true}, nil
}

func (m *testMem) AcquirePages(n int, perfect bool) (heap.Addr, bool, error) {
	if !m.take(n) {
		return 0, false, ErrHeapFull
	}
	// Page allocations stay block-aligned so they never collide with the
	// block table.
	base := m.next
	size := heap.Addr((n*failmap.PageSize + m.blockSize - 1) / m.blockSize * m.blockSize)
	m.next += size
	m.space.Ensure(m.next)
	return base, true, nil
}

func (m *testMem) ReleaseBlock(b BlockMem) {
	if b.Fail != nil && b.Fail.FailedLines() == b.Fail.Lines() {
		return // dead memory is not reused
	}
	b.Fresh = false
	m.pool = append(m.pool, b)
}

func (m *testMem) ReleasePages(base heap.Addr, n int) {
	if m.budget >= 0 {
		m.budget += n
	}
}
