//go:build race

package heap

import "testing"

// TestRaceBuildBacksSpacesWithTheGoHeap: the race detector ignores memory
// outside the Go heap and data segments, so a race build that mapped its
// spaces would check no access to simulated memory at all.
// TestBackingLivesWhereTheBuildSays checks that the backing is where
// offHeap says.
func TestRaceBuildBacksSpacesWithTheGoHeap(t *testing.T) {
	if offHeap {
		t.Fatal("a race build maps its spaces outside the Go heap, where the detector sees no access")
	}
}
