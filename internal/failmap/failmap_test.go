package failmap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMapEmpty(t *testing.T) {
	m := New(4 * PageSize)
	if m.Lines() != 4*LinesPerPage {
		t.Fatalf("Lines = %d, want %d", m.Lines(), 4*LinesPerPage)
	}
	if m.Pages() != 4 {
		t.Fatalf("Pages = %d, want 4", m.Pages())
	}
	if m.FailedLines() != 0 || m.Rate() != 0 {
		t.Fatalf("new map not empty: %d failed", m.FailedLines())
	}
	if m.PerfectPages() != 4 {
		t.Fatalf("PerfectPages = %d, want 4", m.PerfectPages())
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, -64, 63, LineSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", size)
				}
			}()
			New(size)
		}()
	}
}

func TestSetAndQueryLines(t *testing.T) {
	m := New(2 * PageSize)
	m.SetLineFailed(0)
	m.SetLineFailed(65) // second line of page 1
	if !m.LineFailed(0) || !m.LineFailed(65) || m.LineFailed(1) {
		t.Fatal("line state wrong after SetLineFailed")
	}
	if m.PageFailedLines(0) != 1 || m.PageFailedLines(1) != 1 {
		t.Fatal("per-page failed counts wrong")
	}
	if m.PagePerfect(0) || m.PagePerfect(1) {
		t.Fatal("pages with failures must not be perfect")
	}
}

func TestAnyFailedIn(t *testing.T) {
	m := New(PageSize)
	m.SetLineFailed(3) // bytes [192,256)
	cases := []struct {
		start, length int
		want          bool
	}{
		{0, 64, false},
		{0, 193, true},   // touches line 3
		{192, 1, true},   // inside line 3
		{255, 1, true},   // last byte of line 3
		{256, 64, false}, // line 4
		{100, 92, false}, // lines 1..2
	}
	for _, c := range cases {
		if got := m.AnyFailedIn(c.start, c.length); got != c.want {
			t.Errorf("AnyFailedIn(%d,%d) = %v, want %v", c.start, c.length, got, c.want)
		}
	}
}

func TestPageBitmap(t *testing.T) {
	m := New(2 * PageSize)
	m.SetLineFailed(0)
	m.SetLineFailed(63)
	m.SetLineFailed(64)
	if got := m.PageBitmap(0); got != (1 | 1<<63) {
		t.Fatalf("PageBitmap(0) = %#x", got)
	}
	if got := m.PageBitmap(1); got != 1 {
		t.Fatalf("PageBitmap(1) = %#x", got)
	}
}

func TestGenerateUniformRate(t *testing.T) {
	m := New(1024 * PageSize)
	GenerateUniform(m, 0.25, rand.New(rand.NewSource(42)))
	if r := m.Rate(); math.Abs(r-0.25) > 0.01 {
		t.Fatalf("uniform rate = %v, want ~0.25", r)
	}
}

func TestGenerateUniformEdgeProbabilities(t *testing.T) {
	m := New(4 * PageSize)
	GenerateUniform(m, 0, rand.New(rand.NewSource(1)))
	if m.FailedLines() != 0 {
		t.Fatal("p=0 produced failures")
	}
	GenerateUniform(m, 1, rand.New(rand.NewSource(1)))
	if m.FailedLines() != m.Lines() {
		t.Fatal("p=1 left working lines")
	}
}

func TestGenerateClusteredGapsAndRate(t *testing.T) {
	const cluster = 512 // 8 lines
	m := New(2048 * PageSize)
	GenerateClustered(m, 0.25, cluster, rand.New(rand.NewSource(7)))
	if r := m.Rate(); math.Abs(r-0.25) > 0.02 {
		t.Fatalf("clustered rate = %v, want ~0.25", r)
	}
	// Every failure run must begin and end on a cluster boundary, so runs of
	// failures have length k*8 and start at multiples of 8.
	per := cluster / LineSize
	for i := 0; i < m.Lines(); i++ {
		if m.LineFailed(i) != m.LineFailed(i-i%per) {
			t.Fatalf("line %d disagrees with its cluster leader", i)
		}
	}
}

func TestClusterHardwarePreservesCountsPerRegion(t *testing.T) {
	m := New(8 * PageSize)
	GenerateUniform(m, 0.3, rand.New(rand.NewSource(9)))
	for _, regionPages := range []int{1, 2, 4} {
		out := ClusterHardware(m, regionPages)
		regionLines := regionPages * LinesPerPage
		for r := 0; r*regionLines < m.Lines(); r++ {
			var in, got int
			for i := r * regionLines; i < (r+1)*regionLines && i < m.Lines(); i++ {
				if m.LineFailed(i) {
					in++
				}
				if out.LineFailed(i) {
					got++
				}
			}
			if in != got {
				t.Fatalf("region %d (pages=%d): %d failures became %d", r, regionPages, in, got)
			}
		}
	}
}

func TestClusterHardwareDirection(t *testing.T) {
	m := New(2 * PageSize) // two 1-page regions
	// 3 failures on page 0, 2 on page 1, scattered.
	m.SetLineFailed(10)
	m.SetLineFailed(30)
	m.SetLineFailed(50)
	m.SetLineFailed(64 + 20)
	m.SetLineFailed(64 + 40)
	out := ClusterHardware(m, 1)
	// Even region 0: failures pushed to top (lines 0,1,2).
	for i := 0; i < 3; i++ {
		if !out.LineFailed(i) {
			t.Fatalf("even region line %d should be failed", i)
		}
	}
	for i := 3; i < 64; i++ {
		if out.LineFailed(i) {
			t.Fatalf("even region line %d should be working", i)
		}
	}
	// Odd region 1: failures pushed to bottom (lines 126,127).
	for i := 64; i < 126; i++ {
		if out.LineFailed(i) {
			t.Fatalf("odd region line %d should be working", i)
		}
	}
	for i := 126; i < 128; i++ {
		if !out.LineFailed(i) {
			t.Fatalf("odd region line %d should be failed", i)
		}
	}
	// The two free spans are adjacent: lines 3..125 form one run.
	if got := out.LongestFreeRun(); got != 123 {
		t.Fatalf("LongestFreeRun = %d, want 123", got)
	}
}

func TestTwoPageClusteringCreatesPerfectPages(t *testing.T) {
	// Fig. 1(f): with <1 page of failures in a 2-page region, clustering
	// yields at least one perfect page per region.
	m := New(8 * PageSize)
	GenerateUniform(m, 0.3, rand.New(rand.NewSource(11)))
	out := ClusterHardware(m, 2)
	if out.PerfectPages() < 4 {
		t.Fatalf("2-page clustering of 30%% failures gave %d perfect pages in 4 regions, want >= 4",
			out.PerfectPages())
	}
	if m.PerfectPages() >= out.PerfectPages() {
		t.Fatalf("clustering did not increase perfect pages: before %d, after %d",
			m.PerfectPages(), out.PerfectPages())
	}
}

func TestClusterHardwareReducesFragmentation(t *testing.T) {
	m := New(64 * PageSize)
	GenerateUniform(m, 0.25, rand.New(rand.NewSource(13)))
	out := ClusterHardware(m, 2)
	if out.FreeRuns() >= m.FreeRuns() {
		t.Fatalf("clustering did not reduce free runs: %d -> %d", m.FreeRuns(), out.FreeRuns())
	}
	if out.LongestFreeRun() <= m.LongestFreeRun() {
		t.Fatalf("clustering did not lengthen the longest free run: %d -> %d",
			m.LongestFreeRun(), out.LongestFreeRun())
	}
}

// Clustering must improve contiguity (the mean working-run length) and the
// chance that an aligned 4 KB window is entirely working.
func TestClusteringImprovesAnalysisMetrics(t *testing.T) {
	m := New(64 * PageSize)
	GenerateUniform(m, 0.25, rand.New(rand.NewSource(3)))
	cl := ClusterHardware(m, 2)
	contiguity := func(m *Map) float64 {
		return float64(m.Lines()-m.FailedLines()) / float64(m.FreeRuns())
	}
	if contiguity(cl) <= contiguity(m) {
		t.Fatalf("clustering did not improve contiguity: %v -> %v lines a run", contiguity(m), contiguity(cl))
	}
	if cl.PerfectPages() <= m.PerfectPages() {
		t.Fatalf("clustering did not improve 4K fit: %d -> %d of %d pages entirely working",
			m.PerfectPages(), cl.PerfectPages(), m.Pages())
	}
}

func TestCopyPage(t *testing.T) {
	m := New(4 * PageSize)
	m.SetLineFailed(64)  // page 1 line 0
	m.SetLineFailed(130) // page 2 line 2
	dst := New(2 * PageSize)
	dst.CopyPage(1, m, 2)
	if !dst.LineFailed(64+2) || dst.FailedLines() != 1 {
		t.Fatal("CopyPage wrong")
	}
}

func TestLongestFreeRunAndFreeRuns(t *testing.T) {
	m := New(PageSize)
	if m.LongestFreeRun() != 64 || m.FreeRuns() != 1 {
		t.Fatal("empty map run stats wrong")
	}
	m.SetLineFailed(10)
	m.SetLineFailed(20)
	if m.LongestFreeRun() != 43 { // lines 21..63
		t.Fatalf("LongestFreeRun = %d, want 43", m.LongestFreeRun())
	}
	if m.FreeRuns() != 3 {
		t.Fatalf("FreeRuns = %d, want 3", m.FreeRuns())
	}
}

// Property: hardware clustering preserves the total number of failures, and
// within every even/odd region pair the working lines form one contiguous
// run (failures sit at the outer edges of the pair, Fig. 1(e)).
func TestClusterHardwareProperties(t *testing.T) {
	f := func(seed int64, pages uint8, rate uint8) bool {
		np := (int(pages%8) + 1) * 2 // even number of pages, 2..16
		p := float64(rate%51) / 100
		m := New(np * PageSize)
		GenerateUniform(m, p, rand.New(rand.NewSource(seed)))
		for _, rp := range []int{1, 2} {
			out := ClusterHardware(m, rp)
			if out.FailedLines() != m.FailedLines() {
				return false
			}
			pairLines := 2 * rp * LinesPerPage
			for start := 0; start < out.Lines(); start += pairLines {
				end := start + pairLines
				if end > out.Lines() {
					end = out.Lines()
				}
				runs := 0
				inRun := false
				for i := start; i < end; i++ {
					if out.LineFailed(i) {
						inRun = false
					} else if !inRun {
						runs++
						inRun = true
					}
				}
				if runs > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: clustering is idempotent.
func TestClusterHardwareIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		m := New(16 * PageSize)
		GenerateUniform(m, 0.2, rand.New(rand.NewSource(seed)))
		once := ClusterHardware(m, 2)
		twice := ClusterHardware(once, 2)
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRLERoundTrip(t *testing.T) {
	m := New(32 * PageSize)
	GenerateUniform(m, 0.1, rand.New(rand.NewSource(3)))
	data := m.EncodeRLE()
	back, err := DecodeRLE(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Fatal("RLE round trip mismatch")
	}
}

// Property: RLE round-trips for arbitrary uniform maps, and an empty map
// compresses far below the raw table size.
func TestRLEProperties(t *testing.T) {
	f := func(seed int64, rate uint8) bool {
		m := New(8 * PageSize)
		GenerateUniform(m, float64(rate%101)/100, rand.New(rand.NewSource(seed)))
		back, err := DecodeRLE(m.EncodeRLE())
		return err == nil && back.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	empty := New(1024 * PageSize)
	if empty.CompressedSize() >= empty.RawSize()/50 {
		t.Fatalf("empty map RLE %d bytes vs raw %d: poor compression",
			empty.CompressedSize(), empty.RawSize())
	}
}

func TestDecodeRLEErrors(t *testing.T) {
	if _, err := DecodeRLE(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := DecodeRLE([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("bad magic accepted")
	}
	good := New(PageSize).EncodeRLE()
	if _, err := DecodeRLE(good[:len(good)-1]); err == nil {
		t.Fatal("truncated input accepted")
	}
	if _, err := DecodeRLE(append(good, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
