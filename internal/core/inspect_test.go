package core

import (
	"math/rand"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/verify"
)

// occupancy counts line states over the whole space.
func occupancy(ix *Immix) map[byte]int {
	n := map[byte]int{}
	for _, v := range ix.BlockViews() {
		for _, s := range v.States {
			n[s]++
		}
	}
	return n
}

func TestBlockViewsStates(t *testing.T) {
	inject := failmap.New(1 << 20)
	failmap.GenerateUniform(inject, 0.1, rand.New(rand.NewSource(2)))
	e := newEnv(t, envOpts{failureAware: true, inject: inject})
	ix := e.plan.(*Immix)

	head := e.buildList(200)
	e.addRoot(&head)
	e.plan.Collect(true, e.roots)

	n := occupancy(ix)
	if n[verify.LineLive] == 0 {
		t.Fatal("no live lines after collecting a live list")
	}
	if n[verify.LineFailed] == 0 {
		t.Fatal("no failed lines despite injection")
	}
	if n[verify.LineFree] == 0 {
		t.Fatal("no free lines in a fresh heap")
	}

	// The views must agree with the block metadata.
	total := 0
	for _, v := range ix.BlockViews() {
		total += len(v.States)
		nFree, nFail := 0, 0
		for _, s := range v.States {
			switch s {
			case verify.LineFree:
				nFree++
			case verify.LineFailed:
				nFail++
			}
		}
		if nFree != v.FreeLines {
			t.Fatalf("block %#x: %d free states vs freeLines %d", v.Base, nFree, v.FreeLines)
		}
		if nFail != v.Failed {
			t.Fatalf("block %#x: %d failed states vs failedLines %d", v.Base, nFail, v.Failed)
		}
	}
	if total != ix.Blocks()*(32<<10)/256 {
		t.Fatalf("the views covered %d lines", total)
	}
}

// Claimed lines appear between allocation and the next collection.
func TestBlockViewsClaimedLines(t *testing.T) {
	e := newEnv(t, envOpts{})
	ix := e.plan.(*Immix)
	e.newNode(1) // young object on a claimed hole
	if occupancy(ix)[verify.LineClaimed] == 0 {
		t.Fatal("no claimed lines after an allocation")
	}
}
