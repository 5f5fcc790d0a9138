// Command faultgen generates and inspects PCM failure maps: the fault
// injection input of the paper's methodology (§5).
//
// Usage:
//
//	faultgen -pages 1024 -rate 0.25                uniform 64 B line failures
//	faultgen -pages 1024 -rate 0.25 -cluster 2     plus 2-page clustering hw
//	faultgen -pages 1024 -rate 0.25 -gran 1024     pre-clustered at 1 KB (§6.4)
package main

import (
	"flag"
	"fmt"
	"os"

	"wearmem/internal/failmap"
	"wearmem/internal/seeded"
)

func main() {
	var (
		pages   = flag.Int("pages", 1024, "pool size in 4 KB pages")
		rate    = flag.Float64("rate", 0.10, "line failure probability")
		cluster = flag.Int("cluster", 0, "apply hardware clustering with N-page regions")
		gran    = flag.Int("gran", 0, "generate failures pre-clustered at this byte granularity")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := check(*pages, *rate, *cluster, *gran); err != nil {
		fmt.Fprintln(os.Stderr, "faultgen:", err)
		os.Exit(2)
	}

	m := failmap.New(*pages * failmap.PageSize)
	rng := seeded.New(*seed)
	if *gran > 0 {
		failmap.GenerateClustered(m, *rate, *gran, rng)
	} else {
		failmap.GenerateUniform(m, *rate, rng)
	}
	if *cluster > 0 {
		m = failmap.ClusterHardware(m, *cluster)
	}

	fmt.Printf("pool:          %d pages (%d KB), %d lines\n",
		m.Pages(), m.Size()/1024, m.Lines())
	fmt.Printf("failed lines:  %d (%.2f%%)\n", m.FailedLines(), m.Rate()*100)
	fmt.Printf("perfect pages: %d (%.1f%%)\n", m.PerfectPages(),
		100*float64(m.PerfectPages())/float64(m.Pages()))
	fmt.Printf("fragmentation: %d free runs, longest %d lines (%d B)\n",
		m.FreeRuns(), m.LongestFreeRun(), m.LongestFreeRun()*failmap.LineSize)
	fmt.Printf("OS table:      raw %d B, RLE %d B (%.1fx)\n",
		m.RawSize(), m.CompressedSize(),
		float64(m.RawSize())/float64(m.CompressedSize()))

	// A per-page failure histogram, the distribution clustering reshapes.
	var hist [5]int
	for p := 0; p < m.Pages(); p++ {
		n := m.PageFailedLines(p)
		switch {
		case n == 0:
			hist[0]++
		case n <= 4:
			hist[1]++
		case n <= 16:
			hist[2]++
		case n < failmap.LinesPerPage:
			hist[3]++
		default:
			hist[4]++
		}
	}
	fmt.Printf("pages by failed lines: 0:%d  1-4:%d  5-16:%d  17-63:%d  dead:%d\n",
		hist[0], hist[1], hist[2], hist[3], hist[4])
}

// check refuses the flag values the generators would panic on, naming the
// flag.
func check(pages int, rate float64, cluster, gran int) error {
	switch {
	case pages < 1:
		return fmt.Errorf("-pages %d: want at least one page", pages)
	case !(rate >= 0 && rate <= 1):
		return fmt.Errorf("-rate %v: want a probability in [0, 1]", rate)
	case cluster < 0:
		return fmt.Errorf("-cluster %d: want 0 (off) or a region size in pages", cluster)
	case gran < 0 || gran%failmap.LineSize != 0:
		return fmt.Errorf("-gran %d: want 0 (off) or a multiple of the %d B line", gran, failmap.LineSize)
	}
	return nil
}
