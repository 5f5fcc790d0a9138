// Package failmap models PCM line-failure maps.
//
// The paper tracks permanent failures at the granularity of a 64 B PCM line
// and represents the failed lines of each 4 KB page as a 64-bit bitmap held
// in an OS table (§3.2.1). This package provides that bitmap over arbitrary
// memory ranges, the two failure-map generators used by the evaluation
// (uniform line failures and the 2^N-aligned clustered failures of the §6.4
// limit study), the one- and two-page hardware clustering transform of
// §3.1.2 / Fig. 1, and the run-length encoding the OS uses to compress its
// failure table.
package failmap

import (
	"fmt"
	"math/bits"

	"wearmem/internal/bitset"
	"wearmem/internal/seeded"
)

// Memory geometry shared by the whole reproduction. These mirror the paper:
// 64 B PCM lines, 4 KB pages, hence 64 lines per page and a 64-bit bitmap
// per page.
const (
	LineSize     = 64
	PageSize     = 4096
	LinesPerPage = PageSize / LineSize
)

// Map is a failure bitmap over a line-aligned memory range. Bit i set means
// line i has permanently failed. The zero Map is empty and unusable; create
// with New. Word p of words is page p's bitmap, and everything below except
// the point queries and the generators' draws works on whole words through
// package bitset; bits past lines in the last word stay zero.
type Map struct {
	words []uint64
	lines int
}

// New returns an all-working failure map covering size bytes. size must be a
// positive multiple of LineSize.
func New(size int) *Map {
	if size <= 0 || size%LineSize != 0 {
		panic(fmt.Sprintf("failmap: size %d is not a positive multiple of %d", size, LineSize))
	}
	lines := size / LineSize
	return &Map{words: make([]uint64, (lines+63)/64), lines: lines}
}

// Size returns the number of bytes the map covers.
func (m *Map) Size() int { return m.lines * LineSize }

// Lines returns the number of PCM lines the map covers.
func (m *Map) Lines() int { return m.lines }

// Pages returns the number of whole pages the map covers.
func (m *Map) Pages() int { return m.lines / LinesPerPage }

// LineFailed reports whether line index i has failed.
func (m *Map) LineFailed(i int) bool {
	m.check(i)
	return bitset.Get(m.words, i)
}

// SetLineFailed marks line index i as failed.
func (m *Map) SetLineFailed(i int) {
	m.check(i)
	bitset.Set(m.words, i)
}

func (m *Map) check(i int) {
	if i < 0 || i >= m.lines {
		panic(fmt.Sprintf("failmap: line %d out of range [0,%d)", i, m.lines))
	}
}

// AnyFailedIn reports whether any line overlapping the byte range
// [start, start+length) has failed. length must be positive.
func (m *Map) AnyFailedIn(start, length int) bool {
	if length <= 0 {
		panic("failmap: AnyFailedIn with non-positive length")
	}
	first, last := start/LineSize, (start+length-1)/LineSize
	m.check(first)
	m.check(last)
	return bitset.NextSet(m.words, first, last+1) <= last
}

// NextFailed returns the index of the first failed line at or after i, or
// Lines() when there is none: the way to visit a map's failures without
// asking about every line.
func (m *Map) NextFailed(i int) int { return bitset.NextSet(m.words, i, m.lines) }

// FailedLines returns the total number of failed lines.
func (m *Map) FailedLines() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Rate returns the fraction of lines that have failed.
func (m *Map) Rate() float64 {
	if m.lines == 0 {
		return 0
	}
	return float64(m.FailedLines()) / float64(m.lines)
}

// PageBitmap returns the 64-bit failed-line bitmap of page p — exactly the
// per-page OS table entry of §3.2.1. Bit i of the result corresponds to line
// i within the page.
func (m *Map) PageBitmap(p int) uint64 {
	m.checkPage(p)
	// LinesPerPage is 64, so each page bitmap is exactly one word.
	return m.words[p]
}

// SetPageBitmap replaces the failed-line bitmap of page p: one store where
// a table entry is at hand, in place of a SetLineFailed per bit.
func (m *Map) SetPageBitmap(p int, bm uint64) {
	m.checkPage(p)
	m.words[p] = bm
}

func (m *Map) checkPage(p int) {
	if p < 0 || p >= m.Pages() {
		panic(fmt.Sprintf("failmap: page %d out of range [0,%d)", p, m.Pages()))
	}
}

// PageFailedLines returns the number of failed lines on page p.
func (m *Map) PageFailedLines(p int) int { return bits.OnesCount64(m.PageBitmap(p)) }

// PagePerfect reports whether page p has no failed lines.
func (m *Map) PagePerfect(p int) bool { return m.PageBitmap(p) == 0 }

// PerfectPages returns the number of pages with no failed lines.
func (m *Map) PerfectPages() int {
	n := 0
	for p := 0; p < m.Pages(); p++ {
		if m.PagePerfect(p) {
			n++
		}
	}
	return n
}

// CopyPage copies the failure bitmap of page src in from onto page dst of m.
// Both maps must cover whole pages at those indices.
func (m *Map) CopyPage(dst int, from *Map, src int) {
	if dst < 0 || dst >= m.Pages() || src < 0 || src >= from.Pages() {
		panic("failmap: CopyPage index out of range")
	}
	m.words[dst] = from.words[src]
}

// nextFreeRun returns the first maximal run [start, end) of working lines
// at or after line i; start is Lines() when there is none.
func (m *Map) nextFreeRun(i int) (start, end int) {
	start = bitset.NextClear(m.words, i, m.lines)
	return start, m.NextFailed(start)
}

// LongestFreeRun returns the length in lines of the longest run of
// consecutive working lines — the fragmentation measure behind Fig. 8.
func (m *Map) LongestFreeRun() int {
	best := 0
	for i, end := m.nextFreeRun(0); i < m.lines; i, end = m.nextFreeRun(end) {
		best = max(best, end-i)
	}
	return best
}

// FreeRuns returns the number of maximal runs of consecutive working lines.
// Together with FailedLines it quantifies fragmentation: uniform failures
// produce many short runs, clustered failures few long ones.
func (m *Map) FreeRuns() int {
	runs := 0
	for i, end := m.nextFreeRun(0); i < m.lines; i, end = m.nextFreeRun(end) {
		runs++
	}
	return runs
}

// Source is what the generators draw from: math/rand's *rand.Rand, or the
// concrete *seeded.Stream of the same seeded values, which GenerateUniform,
// drawing once per line, draws from without an interface call
// (seeded.Stream.Below).
type Source interface{ Float64() float64 }

// GenerateUniform marks each line of m failed independently with probability
// p, the paper's default failure model ("failures have no spatial
// correlation", §2.2). Existing failures are preserved. It draws once per
// line in line order (the stream every pinned report depends on), assembles
// each page's word in a register and stores it once.
func GenerateUniform(m *Map, p float64, rng Source) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("failmap: probability %v out of [0,1]", p))
	}
	stream, _ := rng.(*seeded.Stream)
	for w := range m.words {
		n := min(64, m.lines-w*64)
		if stream != nil {
			m.words[w] |= stream.Below(n, p)
			continue
		}
		var x uint64
		for b := range n {
			if rng.Float64() < p {
				x |= 1 << uint(b)
			}
		}
		m.words[w] |= x
	}
}

// GenerateClustered implements the §6.4 limit-study generator: it steps
// through aligned regions of clusterBytes and fails each whole region with
// probability p, so gaps between failures are at least clusterBytes long
// while the expected per-line failure probability remains p. clusterBytes
// must be a positive multiple of LineSize.
func GenerateClustered(m *Map, p float64, clusterBytes int, rng Source) {
	if clusterBytes <= 0 || clusterBytes%LineSize != 0 {
		panic(fmt.Sprintf("failmap: cluster size %d is not a positive multiple of %d", clusterBytes, LineSize))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("failmap: probability %v out of [0,1]", p))
	}
	linesPerCluster := clusterBytes / LineSize
	for start := 0; start < m.lines; start += linesPerCluster {
		if rng.Float64() >= p {
			continue
		}
		bitset.SetRange(m.words, start, min(start+linesPerCluster, m.lines))
	}
}

// ClusterHardware applies the §3.1.2 failure-clustering transform: within
// each region of regionPages pages, all failures are moved to one end.
// Mirroring Fig. 1(e), even-numbered regions push failures to the top
// (lowest addresses) and odd-numbered regions to the bottom, maximizing the
// contiguous working span across region boundaries. With regionPages >= 2
// this concentrates failures into as few pages as possible, creating
// logically perfect pages (Fig. 1(f)).
//
// The transform preserves the number of failed lines per region exactly,
// modelling the redirection map: the same physical lines are unusable, they
// are merely renamed. It returns a new map; m is unmodified.
func ClusterHardware(m *Map, regionPages int) *Map {
	if regionPages <= 0 {
		panic("failmap: regionPages must be positive")
	}
	regionLines := regionPages * LinesPerPage
	out := New(m.Size())
	for r := 0; r*regionLines < m.lines; r++ {
		start := r * regionLines
		end := min(start+regionLines, m.lines)
		failed := bitset.Count(m.words, start, end)
		if r%2 == 0 { // push to top
			bitset.SetRange(out.words, start, start+failed)
		} else { // push to bottom
			bitset.SetRange(out.words, end-failed, end)
		}
	}
	return out
}
