package pcm

import "wearmem/internal/failmap"

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

// clone deep-copies the resident pages. A device and an image, or two
// devices restored from one image, never share a page: a snapshot is taken
// while the device keeps running and an image may be restored twice.
func (ls lineStore) clone() lineStore {
	if ls == nil {
		return nil
	}
	out := make(lineStore, len(ls))
	for i, p := range ls {
		if len(p) != 0 {
			out[i] = append([]byte(nil), p...)
		}
	}
	return out
}
