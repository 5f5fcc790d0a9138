package verify

import (
	"math/bits"

	"wearmem/internal/bitset"
	"wearmem/internal/failmap"
)

// Recovered-state verification: after a power cut and kernel.Recover, the
// OS failure table must agree with the device's physical ground truth in
// both directions — no failed line may come back as usable ("resurrected"),
// and no working line may be written off — the clustering redirection maps
// must still satisfy their permutation and contiguity invariants, and no
// orphaned failure-buffer residue may remain parked. These checks are
// independent of any runtime heap: they run between Recover and the VM
// boot, on state no live object depends on yet.

// LineScan is the device surface the recovered-state check reads as ground
// truth; *pcm.Device implements it.
type LineScan interface {
	Lines() int
	// UnavailablePage returns page p's unusable lines as one word, bit l
	// for line p*failmap.LinesPerPage+l.
	UnavailablePage(p int) uint64
	BufferLen() int
}

// TableSource is the kernel surface holding the recovered failure table;
// *kernel.Kernel implements it.
type TableSource interface {
	PCMPages() int
	FrameFailedLines(frame int) uint64
}

// RecoveredTarget bundles the state one recovered-state check inspects.
type RecoveredTarget struct {
	// Pool is the recovered kernel's failure table.
	Pool TableSource
	// Scan is the device, read a page word at a time as ground truth.
	Scan LineScan
	// Clusters, when non-nil, validates the restored redirection maps;
	// *pcm.Device implements it.
	Clusters interface{ ValidateClusters() error }
}

// Recovered cross-checks a freshly recovered kernel against its device.
func Recovered(t RecoveredTarget) *Report {
	rep := &Report{}
	if t.Pool != nil && t.Scan != nil {
		checkRecoveredTable(t, rep)
	}
	if t.Scan != nil {
		rep.Checks++
		if n := t.Scan.BufferLen(); n != 0 {
			rep.add("recovered-buffer", "%d orphaned failure-buffer entries still parked after recovery", n)
		}
	}
	if t.Clusters != nil {
		rep.Checks++
		if err := t.Clusters.ValidateClusters(); err != nil {
			rep.add("cluster-map", "restored redirection maps corrupt: %v", err)
		}
	}
	return rep
}

// checkRecoveredTable demands exact agreement between the OS table and the
// device scan on every line of the pool, one page word from each side per
// frame. Resurrected lines (failed on the device, clean in the table) are
// the dangerous direction — the OS would hand out storage that eats data;
// the other direction wastes working lines and indicates a corrupted table.
func checkRecoveredTable(t RecoveredTarget, rep *Report) {
	rep.Checks++
	pages := t.Pool.PCMPages()
	devLines := t.Scan.Lines()
	for p := 0; p < pages; p++ {
		first := p * failmap.LinesPerPage
		if first >= devLines {
			return
		}
		onDevice := min(devLines-first, failmap.LinesPerPage)
		table, dev := t.Pool.FrameFailedLines(p), t.Scan.UnavailablePage(p)
		for diff := (table ^ dev) & bitset.TailMask(onDevice); diff != 0; diff &= diff - 1 {
			l := bits.TrailingZeros64(diff)
			if line := first + l; dev&(1<<uint(l)) != 0 {
				rep.add("recovered-table",
					"resurrected failed line: device line %d (frame %d line %d) is failed but the recovered table is clean",
					line, p, l)
			} else {
				rep.add("recovered-table",
					"recovered table marks frame %d line %d failed but device line %d is working",
					p, l, line)
			}
		}
	}
}
