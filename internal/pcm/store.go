package pcm

import (
	"fmt"
	"slices"

	"wearmem/internal/failmap"
)

// lineStore holds line contents by storage slot, one entry per page of
// slots. A page is allocated the first time one of its lines is stored to
// and an absent page reads as zeros, so the host cost of a module follows
// what was written to it rather than its capacity. A nil store tracks no
// data (Config.TrackData off). DeviceImage.Data has the same shape.
type lineStore [][]byte

func newLineStore(slots int) lineStore { return make(lineStore, storePages(slots)) }

// storePages is the directory length for a module of slots storage slots
// (the start-gap spare slot takes a page of its own).
func storePages(slots int) int {
	return (slots + failmap.LinesPerPage - 1) / failmap.LinesPerPage
}

func lineOffset(s int) int { return s % failmap.LinesPerPage * failmap.LineSize }

// read copies slot s into dst without allocating its page: callers reuse
// dst, so an absent page must still overwrite it with zeros.
func (ls lineStore) read(s int, dst []byte) {
	if p := ls[s/failmap.LinesPerPage]; p != nil {
		copy(dst, p[lineOffset(s):lineOffset(s)+failmap.LineSize])
		return
	}
	clear(dst[:min(len(dst), failmap.LineSize)])
}

// line returns slot s's bytes for storing to, allocating its page.
func (ls lineStore) line(s int) []byte {
	p := ls[s/failmap.LinesPerPage]
	if p == nil {
		p = make([]byte, failmap.PageSize)
		ls[s/failmap.LinesPerPage] = p
	}
	return p[lineOffset(s) : lineOffset(s)+failmap.LineSize]
}

// move copies slot src onto slot dst. Only a resident page can hold
// anything but zeros, so absent onto absent allocates nothing and absent
// onto resident stores zeros.
func (ls lineStore) move(dst, src int) {
	if ls[src/failmap.LinesPerPage] != nil || ls[dst/failmap.LinesPerPage] != nil {
		ls.read(src, ls.line(dst))
	}
}

// wearStore holds the per-slot wear state, write counters and broken flags,
// in enduranceChunk-slot chunks, the shape DeviceImage.Writes and Broken
// have: a directory per kind with one entry a chunk, the last chunk shorter
// when the slots do not fill it. A chunk is allocated the first time a
// write counts on, or a failure breaks, one of its slots (or with every
// other by flatten, for a wear study), and an absent chunk reads as zeros,
// so the host cost of a module's wear follows the chunks its writes reached
// rather than its capacity.
type wearStore struct {
	writes [][]uint64
	broken [][]bool
	slots  int
}

// chunkShift and chunkMask split a slot into its chunk and its index within
// it. Callers index with uint(s): a slot is never negative, and unsigned
// shift and mask compile to one instruction each where int / and % would
// need a sign fix-up.
const (
	chunkShift     = 12
	enduranceChunk = 1 << chunkShift // also how many limits a device draws at a time
	chunkMask      = enduranceChunk - 1
)

// chunkLen is how many slots chunk i of a module of slots slots holds.
func chunkLen(i, slots int) int { return min(enduranceChunk, slots-i*enduranceChunk) }

// add counts n writes on slot s, allocating its chunk, and returns the
// slot's count: the one lookup of its chunk a write makes.
func (w *wearStore) add(s int, n uint64) uint64 {
	c := chunkOf(w.writes, s, w.slots)
	c[uint(s)&chunkMask] += n
	return c[uint(s)&chunkMask]
}

// setBroken breaks slot s, allocating its chunk of flags.
func (w *wearStore) setBroken(s int) { chunkOf(w.broken, s, w.slots)[uint(s)&chunkMask] = true }

// chunkOf returns slot s's chunk of dir, allocating it.
func chunkOf[T any](dir [][]T, s, slots int) []T {
	i := uint(s) >> chunkShift
	if dir[i] == nil {
		dir[i] = make([]T, chunkLen(int(i), slots))
	}
	return dir[i]
}

// count and isBroken read slot s's count and flag, allocating nothing.
func (w *wearStore) count(s int) uint64  { return at(w.writes, s) }
func (w *wearStore) isBroken(s int) bool { return at(w.broken, s) }

func at[T any](dir [][]T, s int) (v T) {
	if c := dir[uint(s)>>chunkShift]; c != nil {
		v = c[uint(s)&chunkMask]
	}
	return v
}

// flatten makes every chunk of dir resident, as a piece of one array of
// slots entries, and returns the array: a loop that indexes every slot
// (countWear) reads it as the dense array it is, with no lookup of a chunk,
// while the directory holds the same values by chunk.
func flatten[T any](dir [][]T, slots int) []T {
	flat := make([]T, slots)
	for i, c := range dir {
		lo, hi := i<<chunkShift, i<<chunkShift+chunkLen(i, slots)
		copy(flat[lo:hi], c)
		dir[i] = flat[lo:hi:hi]
	}
	return flat
}

// nonzeroChunks copies the chunks of dir that hold a nonzero value, for an
// image, leaving the others empty: a chunk WearThrough made resident may
// still be all zeros.
func nonzeroChunks[T comparable](dir [][]T) [][]T {
	var zero T
	out := make([][]T, len(dir))
	for i, c := range dir {
		if slices.ContainsFunc(c, func(v T) bool { return v != zero }) {
			out[i] = slices.Clone(c)
		}
	}
	return out
}

// cloneChunks deep-copies the resident pages of a lineStore or chunks of a
// wearStore directory, leaving absent ones absent. A device and an image, or
// two devices restored from one image, never share one: a snapshot is taken
// while the device keeps running and an image may be restored twice.
func cloneChunks[T any](dir [][]T) [][]T {
	out := append([][]T(nil), dir...) // nil for a nil directory
	for i, c := range out {
		out[i] = append([]T(nil), c...) // nil for an empty one
	}
	return out
}

// checkChunks refuses an image's directory of wear chunks that does not
// split the module's slots the way a wearStore does.
func checkChunks[T any](dir [][]T, slots int, what string) error {
	if want := (slots + enduranceChunk - 1) / enduranceChunk; len(dir) != want {
		return fmt.Errorf("pcm: image %s come in %d chunks, want %d", what, len(dir), want)
	}
	for i, c := range dir {
		if n := chunkLen(i, slots); len(c) != 0 && len(c) != n {
			return fmt.Errorf("pcm: image %s chunk %d holds %d slots, want 0 or %d", what, i, len(c), n)
		}
	}
	return nil
}
