// Package seeded is math/rand's seeded Int63 stream as a concrete type, so
// that the simulator's hot draws — a wear study's lines, a kv request, a
// failure map's lines — cost no interface call. It depends on nothing in
// the module, so every layer that draws can import it.
package seeded

import "math/rand"

// math/rand's seeded source is the additive lagged-Fibonacci generator
// x[n] = x[n−Lag] + x[n−tap] mod 2⁶⁴. block is how many values a Stream
// makes at a time.
const (
	Lag   = 607
	tap   = 273
	block = 2048
)

// Stream is the value stream of rand.New(rand.NewSource(seed)).Int63. The
// generator's whole state is its last 607 outputs: New takes the first 607
// Int63 values of math/rand's own seeded source, solves the recurrence back
// to the 607 before them, and continues from there a block at a time, one
// loop of adds with no wrap-around. From a rand.Source64 — every seeded
// source is one — it takes whole Uint64 values, so every value is the
// source's and Uint64 is the source's too. From another source it takes
// Int63 values: a carry only flows upward, so the low 63 bits of every
// value — all of what Int63 returns, and so all of what Int31n and Float64
// consume — are still the source's, but the top bit is not.
type Stream struct {
	x [Lag + block]uint64 // the lag values before the block, then the block
	i int                 // index in x of the next value; len(x) when the block is spent
}

// New returns the stream math/rand seeds from seed, at its start.
func New(seed int64) *Stream { return FromSource(rand.NewSource(seed)) }

// FromSource returns the stream whose first Lag values are src's next
// values; from a seeded source at its start, that is the source's whole
// stream. It solves the recurrence back to the Lag values before them and
// leaves those at the end of the buffer, where the first draw makes the
// first block from them.
func FromSource(src rand.Source) *Stream {
	var x [2 * Lag]uint64
	src64, _ := src.(rand.Source64)
	for k := Lag; k < len(x); k++ {
		if src64 != nil {
			x[k] = src64.Uint64()
		} else {
			x[k] = uint64(src.Int63())
		}
	}
	for k := Lag - 1; k >= 0; k-- {
		x[k] = x[k+Lag] - x[k+Lag-tap]
	}
	s := &Stream{i: Lag + block}
	copy(s.x[block:], x[:Lag])
	return s
}

// next makes the block after the current one from its last Lag values and
// returns where index j of the buffer has moved to.
func (s *Stream) next(j int) int {
	x := &s.x
	copy(x[:Lag], x[block:])
	for k := Lag; k < len(x); k++ {
		x[k] = x[k-Lag] + x[k-tap]
	}
	return j - block
}

// Int63 is the stream's next Int63.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 is math/rand's Rand.Uint64 on a stream New made: the next raw
// value.
func (s *Stream) Uint64() uint64 {
	if s.i == len(s.x) {
		s.i = s.next(s.i)
	}
	v := s.x[s.i]
	s.i++
	return v
}

// Float64 is math/rand's Rand.Float64 on this stream: the next Int63 over
// 2⁶³, drawn again in the one case in 2⁵⁴ where the quotient rounds to 1.
func (s *Stream) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Below draws n Float64 values, n at most 64, and returns the word whose
// bit b is set when the b-th of them is below p. Dividing by 2⁶³ is exact,
// so Float64() < p is float64(v) < p·2⁶³ on the raw value v, and Float64's
// redraw is float64(v) == 2⁶³: a draw is a conversion and a compare, and
// leaves the stream where the n Float64 calls would.
func (s *Stream) Below(n int, p float64) uint64 {
	const one = 1 << 63
	threshold := p * one
	x, j := uint64(0), s.i
	for b := 0; b < n; {
		if j == len(s.x) {
			j = s.next(j)
		}
		f := float64(int64(s.x[j] << 1 >> 1))
		j++
		if f == one {
			continue
		}
		x |= bit(f < threshold) << uint(b)
		b++
	}
	s.i = j
	return x
}

// bit is 1 for true, compiled to a flag set and not a branch, which a draw
// below a rate like 0.1 would mispredict at every failure.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Intn is math/rand's Rand.Intn on this stream for n up to 2³¹−1, where it
// is Int31n(n). It panics for any other n.
func (s *Stream) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("seeded: Stream.Intn argument outside [1, 2³¹−1]")
	}
	v, j := s.Candidate(s.i, Int31nMax(uint32(n)))
	s.i = j
	return Reduce(v, uint32(n))
}

// math/rand's Int31n(n), which is Intn(n) for n below 2³¹, split so that a
// caller drawing many values at one bound works out what depends on the
// bound once and not once per draw: Int31n takes v = Int63()>>32, redraws
// while v > 2³¹−1−(2³¹ mod n), and returns v mod n; for a power of two
// nothing is redrawn and v mod n is a mask. The seeded stream and this
// arithmetic are frozen by the Go 1 promise.

// Int31nMax is the highest candidate Int31n(n) keeps.
func Int31nMax(n uint32) uint32 { return 1<<31 - 1 - (1<<31)%n }

// Candidate returns Int31n's next candidate not above max from index j of
// the stream's buffer on, and the index after it, which is where Int31n
// would leave the stream. It stays within the inliner's budget (go build
// -gcflags=-m says so), so a caller that takes j from Index, keeps it in a
// local across draws and hands it back to SetIndex draws with a load and a
// compare and no store through s.
func (s *Stream) Candidate(j int, max uint32) (uint32, int) {
	for {
		if j == len(s.x) {
			j = s.next(j)
		}
		v := uint32(s.x[j] << 1 >> 33) // Int63() >> 32
		j++
		if v <= max {
			return v, j
		}
	}
}

// Index is the buffer index of the stream's next value, for Candidate.
func (s *Stream) Index() int { return s.i }

// SetIndex resumes the stream at j, an index Candidate returned.
func (s *Stream) SetIndex(j int) { s.i = j }

// Reduce maps a kept candidate to [0, n).
func Reduce(v, n uint32) int {
	if n&(n-1) == 0 {
		return int(v & (n - 1))
	}
	return int(v % n)
}
