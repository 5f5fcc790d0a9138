// Package bitset holds the word-at-a-time operations on []uint64 bit sets
// that the failure map (one word per 4 KB page, §3.2.1) and the collector's
// line and cell states share: a range or a search costs one step per 64
// bits, with math/bits intrinsics, instead of one branch per bit.
package bitset

import "math/bits"

// Words returns the number of uint64 words covering n bits.
func Words(n int) int { return (n + 63) / 64 }

func Get(s []uint64, i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func Set(s []uint64, i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func Clear(s []uint64, i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }

// Mask returns the mask of bit positions [start, end) that fall inside
// word w, or 0 when the range does not intersect it.
func Mask(w, start, end int) uint64 {
	lo, hi := max(start-w*64, 0), min(end-w*64, 64)
	if lo >= hi {
		return 0
	}
	return ^uint64(0) << uint(lo) & (^uint64(0) >> uint(64-hi))
}

// TailMask returns the valid-bit mask of the final word of an n-bit set.
func TailMask(n int) uint64 { return ^uint64(0) >> (uint(-n) & 63) }

// next returns the index of the first 1-bit of s^flip at or after i, or
// limit when none exists below it; flip is 0 or all ones.
func next(s []uint64, i, limit int, flip uint64) int {
	if i >= limit {
		return limit
	}
	x := (s[i>>6] ^ flip) >> (uint(i) & 63) << (uint(i) & 63)
	for w := i >> 6; ; x = s[w] ^ flip {
		if x != 0 {
			return min(w<<6+bits.TrailingZeros64(x), limit)
		}
		if w++; w<<6 >= limit {
			return limit
		}
	}
}

// NextSet returns the index of the first 1-bit at or after i, or limit
// when none exists below it.
func NextSet(s []uint64, i, limit int) int { return next(s, i, limit, 0) }

// NextClear returns the index of the first 0-bit at or after i, or limit
// when none exists below it.
func NextClear(s []uint64, i, limit int) int { return next(s, i, limit, ^uint64(0)) }

// SetRange sets bits [start, end).
func SetRange(s []uint64, start, end int) {
	for w := start >> 6; w<<6 < end; w++ {
		s[w] |= Mask(w, start, end)
	}
}

// Count returns the number of 1-bits in [start, end).
func Count(s []uint64, start, end int) int {
	n := 0
	for w := start >> 6; w<<6 < end; w++ {
		n += bits.OnesCount64(s[w] & Mask(w, start, end))
	}
	return n
}
