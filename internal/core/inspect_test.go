package core

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
)

// occupancy counts line states over the whole space.
func occupancy(ix *Immix) map[LineState]int {
	n := map[LineState]int{}
	for _, info := range ix.InspectBlocks() {
		for _, s := range info.States {
			n[s]++
		}
	}
	return n
}

func TestInspectBlocksStates(t *testing.T) {
	inject := failmap.New(1 << 20)
	failmap.GenerateUniform(inject, 0.1, rand.New(rand.NewSource(2)))
	e := newEnv(t, envOpts{failureAware: true, inject: inject})
	ix := e.plan.(*Immix)

	head := e.buildList(200)
	e.addRoot(&head)
	e.plan.Collect(true, e.roots)

	n := occupancy(ix)
	if n[LineLive] == 0 {
		t.Fatal("no live lines after collecting a live list")
	}
	if n[LineFailed] == 0 {
		t.Fatal("no failed lines despite injection")
	}
	if n[LineFree] == 0 {
		t.Fatal("no free lines in a fresh heap")
	}

	// The inspector must agree with the block metadata.
	total := 0
	for _, info := range ix.InspectBlocks() {
		total += len(info.States)
		nFree, nFail := 0, 0
		for _, s := range info.States {
			switch s {
			case LineFree:
				nFree++
			case LineFailed:
				nFail++
			}
		}
		if nFree != info.FreeLines {
			t.Fatalf("block %#x: %d free states vs freeLines %d", info.Base, nFree, info.FreeLines)
		}
		if nFail != info.Failed {
			t.Fatalf("block %#x: %d failed states vs failedLines %d", info.Base, nFail, info.Failed)
		}
	}
	if total != ix.Blocks()*(32<<10)/256 {
		t.Fatalf("inspector covered %d lines", total)
	}
}

// Claimed lines appear between allocation and the next collection.
func TestInspectClaimedLines(t *testing.T) {
	e := newEnv(t, envOpts{})
	ix := e.plan.(*Immix)
	e.newNode(1) // young object on a claimed hole
	if occupancy(ix)[LineClaimed] == 0 {
		t.Fatal("no claimed lines after an allocation")
	}
}
