package vm

import (
	"errors"
	"strings"
	"testing"

	"wearmem/internal/heap"
)

// adoptParked empties heap's free list (each NewSpace takes one backing
// off it), so the counts below are this test's own.
func adoptParked(t *testing.T) {
	t.Helper()
	drain := func() {
		for heap.Parked() > 0 {
			heap.NewSpace()
		}
	}
	drain()
	t.Cleanup(drain)
}

func TestCloseReleasesTheSpaceOnce(t *testing.T) {
	adoptParked(t)
	tv := makeVM(t, 256<<10, 0, StickyImmix, false, 0, 1)
	head := tv.buildList(t, 50)
	tv.Close()
	tv.Close()
	if heap.Parked() != 1 {
		t.Fatalf("Parked() = %d after Close, want 1", heap.Parked())
	}
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "released space") {
			t.Fatalf("heap read after Close recovered %q, want a released-space panic", p)
		}
	}()
	tv.ReadWord(head, nodeVal)
}

// TestCloseAfterFailedThreadedBatch: a RunThreads batch that ends in an
// error or a panic may leave marker goroutines holding the space, so Close
// leaves it to the garbage collector; a batch that joins cleanly parks it.
func TestCloseAfterFailedThreadedBatch(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		task   func() error
		parked int
	}{
		{"clean", func() error { return nil }, 1},
		{"error", func() error { return boom }, 0},
		{"panic", func() error { panic("boom") }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adoptParked(t)
			tv := makeThreadedVM(t, 256<<10, StickyImmix, 2)
			head := tv.buildList(t, 10)
			func() {
				defer func() { recover() }()
				if err := tv.RunThreads(tc.task); err != nil && !errors.Is(err, boom) {
					t.Errorf("RunThreads: %v", err)
				}
			}()
			tv.Close()
			if heap.Parked() != tc.parked {
				t.Fatalf("Parked() = %d, want %d", heap.Parked(), tc.parked)
			}
			if tc.parked == 0 {
				tv.ReadWord(head, nodeVal) // the space is still this VM's
			}
		})
	}
}
