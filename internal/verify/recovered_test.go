package verify_test

import (
	"errors"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/verify"
)

// scanStub is a device: failed names its unusable lines, which may lie past
// lines (a page word reports them; the verifier must mask them off).
type scanStub struct {
	lines    int
	failed   map[int]bool
	buffered int
}

func (s scanStub) Lines() int             { return s.lines }
func (s scanStub) Unavailable(l int) bool { return s.failed[l] }
func (s scanStub) BufferLen() int         { return s.buffered }

func (s scanStub) UnavailablePage(p int) uint64 {
	var bm uint64
	for l := range failmap.LinesPerPage {
		if s.failed[p*failmap.LinesPerPage+l] {
			bm |= 1 << uint(l)
		}
	}
	return bm
}

type tableStub struct {
	pages int
	bm    map[int]uint64
}

func (t tableStub) PCMPages() int                 { return t.pages }
func (t tableStub) FrameFailedLines(f int) uint64 { return t.bm[f] }

type clusterStub struct{ err error }

func (c clusterStub) ValidateClusters() error { return c.err }

func TestRecoveredCleanState(t *testing.T) {
	rep := verify.Recovered(verify.RecoveredTarget{
		Pool: tableStub{pages: 2, bm: map[int]uint64{0: 1 << 5}},
		Scan: scanStub{lines: 2 * failmap.LinesPerPage, failed: map[int]bool{5: true}},
	})
	if !rep.Ok() {
		t.Fatalf("clean recovered state reported findings: %v", rep.Err())
	}
	if rep.Checks == 0 {
		t.Fatal("no checks ran")
	}
}

// TestRecoveredVerifyCatchesResurrectedLine: a line failed on the device
// but clean in the table is the dangerous direction — the OS would hand
// out storage that eats data.
func TestRecoveredVerifyCatchesResurrectedLine(t *testing.T) {
	rep := verify.Recovered(verify.RecoveredTarget{
		Pool: tableStub{pages: 2},
		Scan: scanStub{lines: 2 * failmap.LinesPerPage, failed: map[int]bool{70: true}},
	})
	if rep.Ok() {
		t.Fatal("resurrected failed line not reported")
	}
	if !strings.Contains(rep.Err().Error(), "resurrected") {
		t.Fatalf("wrong finding: %v", rep.Err())
	}
}

// TestRecoveredVerifyCatchesCorruptTable: the table writing off a working
// line indicates a corrupted recovery.
func TestRecoveredVerifyCatchesCorruptTable(t *testing.T) {
	rep := verify.Recovered(verify.RecoveredTarget{
		Pool: tableStub{pages: 2, bm: map[int]uint64{1: 1 << 3}},
		Scan: scanStub{lines: 2 * failmap.LinesPerPage},
	})
	if rep.Ok() {
		t.Fatal("corrupted recovered table not reported")
	}
}

func TestRecoveredVerifyCatchesParkedResidue(t *testing.T) {
	rep := verify.Recovered(verify.RecoveredTarget{
		Scan: scanStub{lines: failmap.LinesPerPage, buffered: 2},
	})
	if rep.Ok() {
		t.Fatal("orphaned failure-buffer residue not reported")
	}
}

func TestRecoveredVerifyCatchesClusterCorruption(t *testing.T) {
	rep := verify.Recovered(verify.RecoveredTarget{
		Clusters: clusterStub{err: errors.New("region 3: map is not a permutation")},
	})
	if rep.Ok() {
		t.Fatal("corrupt redirection maps not reported")
	}
}
