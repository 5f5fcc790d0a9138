package core

import "wearmem/internal/verify"

// BlockViews renders every Immix block's line states, address-ordered, in
// the plain-data form the production heap verifier consumes: the view
// Fig. 2 draws, one verify glyph a line. core depends on verify — not the
// reverse — so the in-package collector tests and the torture harness
// drive one shared checker.
func (ix *Immix) BlockViews() []verify.BlockView {
	out := make([]verify.BlockView, len(ix.blocks.all))
	for i, b := range ix.blocks.all {
		v := verify.BlockView{
			Base:      uint64(b.mem.Base),
			LineSize:  ix.cfg.LineSize,
			FreeLines: b.freeLines,
			Failed:    b.failedLines,
			States:    make([]byte, b.lines),
		}
		for l := range v.States {
			switch {
			case b.failedAt(l):
				v.States[l] = verify.LineFailed
			case b.availAt(l):
				v.States[l] = verify.LineFree
			case b.markedAt(l, ix.epoch):
				v.States[l] = verify.LineLive
			default:
				v.States[l] = verify.LineClaimed
			}
		}
		out[i] = v
	}
	return out
}

// ContextViews converts the attached mutator contexts into the plain-data
// form the per-mutator ownership checker consumes.
func (ix *Immix) ContextViews() []verify.ContextView {
	out := make([]verify.ContextView, len(ix.muts))
	for i, mc := range ix.muts {
		v := verify.ContextView{ID: mc.id, BlockSize: ix.cfg.BlockSize}
		if mc.cur.b != nil {
			v.CurBlock = uint64(mc.cur.b.mem.Base)
			v.CurCursor = uint64(mc.cur.cursor)
			v.CurLimit = uint64(mc.cur.limit)
		}
		if mc.over.b != nil {
			v.OverBlock = uint64(mc.over.b.mem.Base)
			v.OverCursor = uint64(mc.over.cursor)
			v.OverLimit = uint64(mc.over.limit)
		}
		out[i] = v
	}
	return out
}
