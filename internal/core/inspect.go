package core

// Heap inspection: a textual rendering of the Immix space's line states,
// the view Fig. 2 draws. Used by diagnostics and the wearsim-style tools;
// the collectors never depend on it.

// LineState is the inspector's classification of one Immix line.
type LineState byte

const (
	// LineFree is available for allocation.
	LineFree LineState = '.'
	// LineLive was marked at the current epoch.
	LineLive LineState = '#'
	// LineClaimed is neither free nor marked: claimed by an allocation
	// context and possibly holding young objects.
	LineClaimed LineState = '+'
	// LineFailed is permanently retired.
	LineFailed LineState = 'X'
)

// BlockInfo summarizes one block for inspection.
type BlockInfo struct {
	Base      uint64
	FreeLines int
	Failed    int
	Holes     int
	Evacuate  bool
	States    []LineState
}

// InspectBlocks returns a summary of every block, address-ordered.
func (ix *Immix) InspectBlocks() []BlockInfo {
	out := make([]BlockInfo, 0, len(ix.blocks.all))
	for _, b := range ix.blocks.all {
		info := BlockInfo{
			Base:      uint64(b.mem.Base),
			FreeLines: b.freeLines,
			Failed:    b.failedLines,
			Holes:     b.holes,
			Evacuate:  b.evacuate,
			States:    make([]LineState, b.lines),
		}
		for l := 0; l < b.lines; l++ {
			switch {
			case b.failedAt(l):
				info.States[l] = LineFailed
			case b.availAt(l):
				info.States[l] = LineFree
			case b.markedAt(l, ix.epoch):
				info.States[l] = LineLive
			default:
				info.States[l] = LineClaimed
			}
		}
		out = append(out, info)
	}
	return out
}
