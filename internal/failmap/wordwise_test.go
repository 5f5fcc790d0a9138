package failmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The per-line bodies the word-wise functions replaced, kept as the
// references the differential tests below hold them to.

func refAnyFailedIn(m *Map, start, length int) bool {
	for i := start / LineSize; i <= (start+length-1)/LineSize; i++ {
		if m.LineFailed(i) {
			return true
		}
	}
	return false
}

func refSlice(m *Map, start, size int) *Map {
	out := New(size)
	for i := 0; i < out.lines; i++ {
		if m.LineFailed(start/LineSize + i) {
			out.SetLineFailed(i)
		}
	}
	return out
}

func refLongestFreeRun(m *Map) int {
	best, cur := 0, 0
	for i := 0; i < m.lines; i++ {
		if m.LineFailed(i) {
			cur = 0
			continue
		}
		cur++
		best = max(best, cur)
	}
	return best
}

func refFreeRuns(m *Map) int {
	runs, inRun := 0, false
	for i := 0; i < m.lines; i++ {
		if m.LineFailed(i) {
			inRun = false
		} else if !inRun {
			runs++
			inRun = true
		}
	}
	return runs
}

func refGenerateUniform(m *Map, p float64, rng *rand.Rand) {
	for i := 0; i < m.lines; i++ {
		if rng.Float64() < p {
			m.SetLineFailed(i)
		}
	}
}

func refGenerateClustered(m *Map, p float64, clusterBytes int, rng *rand.Rand) {
	per := clusterBytes / LineSize
	for start := 0; start < m.lines; start += per {
		if rng.Float64() >= p {
			continue
		}
		for i := start; i < min(start+per, m.lines); i++ {
			m.SetLineFailed(i)
		}
	}
}

func refClusterHardware(m *Map, regionPages int) *Map {
	regionLines := regionPages * LinesPerPage
	out := New(m.Size())
	for r := 0; r*regionLines < m.lines; r++ {
		start := r * regionLines
		end := min(start+regionLines, m.lines)
		failed := 0
		for i := start; i < end; i++ {
			if m.LineFailed(i) {
				failed++
			}
		}
		if r%2 == 0 {
			for i := start; i < start+failed; i++ {
				out.SetLineFailed(i)
			}
		} else {
			for i := end - failed; i < end; i++ {
				out.SetLineFailed(i)
			}
		}
	}
	return out
}

func refCoarsen(m *Map, granBytes int) *Map {
	per := granBytes / LineSize
	out := New(m.Size())
	for start := 0; start < m.lines; start += per {
		end := min(start+per, m.lines)
		bad := false
		for i := start; i < end; i++ {
			bad = bad || m.LineFailed(i)
		}
		for i := start; bad && i < end; i++ {
			out.SetLineFailed(i)
		}
	}
	return out
}

func refEncodeRLE(m *Map) []byte {
	buf := binary.BigEndian.AppendUint32(nil, rleMagic)
	buf = binary.AppendUvarint(buf, uint64(m.lines))
	i, cur := 0, false
	for i < m.lines {
		run := 0
		for i < m.lines && m.LineFailed(i) == cur {
			run++
			i++
		}
		buf = binary.AppendUvarint(buf, uint64(run))
		cur = !cur
	}
	return buf
}

// refDecodeRuns is the old decoder's run loop over an encoding the encoder
// produced (no error paths).
func refDecodeRuns(data []byte) *Map {
	data = data[4:]
	lines, n := binary.Uvarint(data)
	data = data[n:]
	m := New(int(lines) * LineSize)
	i, cur := 0, false
	for i < int(lines) {
		run, n := binary.Uvarint(data)
		data = data[n:]
		for j := 0; cur && j < int(run); j++ {
			m.SetLineFailed(i + j)
		}
		i += int(run)
		cur = !cur
	}
	return m
}

// wordwiseLines are map lengths on both sides of every word boundary case:
// under a word, one short, exact, one over, whole pages, and pages plus a
// ragged tail.
var wordwiseLines = []int{1, 63, 64, 65, 640, 4096 + 37}

var wordwiseRates = []float64{0, 0.1, 0.5, 1}

// randomMap fails each line with probability rate, one SetLineFailed at a
// time.
func randomMap(lines int, rate float64, rng *rand.Rand) *Map {
	m := New(lines * LineSize)
	refGenerateUniform(m, rate, rng)
	return m
}

// eachWordwiseMap runs f on a random map of every length at every rate.
func eachWordwiseMap(t *testing.T, f func(t *testing.T, m *Map, rng *rand.Rand)) {
	for _, lines := range wordwiseLines {
		for _, rate := range wordwiseRates {
			t.Run(fmt.Sprintf("%dlines/rate%v", lines, rate), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(lines)*7 + int64(rate*100)))
				f(t, randomMap(lines, rate, rng), rng)
			})
		}
	}
}

func TestWordwiseQueriesMatchPerLine(t *testing.T) {
	eachWordwiseMap(t, func(t *testing.T, m *Map, rng *rand.Rand) {
		for try := 0; try < 300; try++ {
			start := rng.Intn(m.Size())
			length := 1 + rng.Intn(min(m.Size()-start, 40*LineSize))
			if got, want := m.AnyFailedIn(start, length), refAnyFailedIn(m, start, length); got != want {
				t.Fatalf("AnyFailedIn(%d, %d) = %v, per-line %v", start, length, got, want)
			}
			from := rng.Intn(m.lines)
			lines := 1 + rng.Intn(m.lines-from)
			if got, want := m.Slice(from*LineSize, lines*LineSize), refSlice(m, from*LineSize, lines*LineSize); !got.Equal(want) {
				t.Fatalf("Slice of lines [%d, %d) differs from the per-line copy", from, from+lines)
			}
		}
		if got, want := m.LongestFreeRun(), refLongestFreeRun(m); got != want {
			t.Errorf("LongestFreeRun = %d, per-line %d", got, want)
		}
		if got, want := m.FreeRuns(), refFreeRuns(m); got != want {
			t.Errorf("FreeRuns = %d, per-line %d", got, want)
		}
		// Walking down, want is the first failed line at or after i.
		for i, want := m.lines, m.lines; i >= 0; i-- {
			if i < m.lines && m.LineFailed(i) {
				want = i
			}
			if got := m.NextFailed(i); got != want {
				t.Fatalf("NextFailed(%d) = %d, want %d", i, got, want)
			}
		}
	})
}

func TestWordwiseTransformsMatchPerLine(t *testing.T) {
	eachWordwiseMap(t, func(t *testing.T, m *Map, _ *rand.Rand) {
		for _, pages := range []int{1, 2, 3} {
			if !ClusterHardware(m, pages).Equal(refClusterHardware(m, pages)) {
				t.Errorf("ClusterHardware(%d pages) differs from the per-line transform", pages)
			}
		}
		for _, gran := range []int{LineSize, 2 * LineSize, 3 * LineSize, 4 * LineSize, PageSize, 37 * LineSize} {
			if !Coarsen(m, gran).Equal(refCoarsen(m, gran)) {
				t.Errorf("Coarsen(%d) differs from the per-line transform", gran)
			}
		}
		enc := m.EncodeRLE()
		if !bytes.Equal(enc, refEncodeRLE(m)) {
			t.Fatalf("EncodeRLE differs from the per-line encoder")
		}
		back, err := DecodeRLE(enc)
		if err != nil {
			t.Fatalf("DecodeRLE of an encoded %d-line map: %v", m.lines, err)
		}
		if !back.Equal(refDecodeRuns(enc)) || !back.Equal(m) {
			t.Errorf("DecodeRLE differs from the per-line decoder or from the map encoded")
		}
	})
}

// The generators must draw exactly what the per-line loops drew (every
// pinned report hangs off that stream), leave the rng where they left it,
// and OR into the failures the map already had.
func TestWordwiseGeneratorsMatchPerLine(t *testing.T) {
	eachWordwiseMap(t, func(t *testing.T, m *Map, _ *rand.Rand) {
		for _, p := range wordwiseRates {
			got, want := m.Clone(), m.Clone()
			a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			GenerateUniform(got, p, a)
			refGenerateUniform(want, p, b)
			if !got.Equal(want) || a.Int63() != b.Int63() {
				t.Errorf("GenerateUniform(%v) differs from the per-line generator or leaves the rng elsewhere", p)
			}
			for _, cluster := range []int{LineSize, 2 * LineSize, 3 * LineSize, PageSize, 2 * PageSize} {
				got, want := m.Clone(), m.Clone()
				GenerateClustered(got, p, cluster, a)
				refGenerateClustered(want, p, cluster, b)
				if !got.Equal(want) || a.Int63() != b.Int63() {
					t.Errorf("GenerateClustered(%v, %d) differs from the per-line generator or leaves the rng elsewhere", p, cluster)
				}
			}
		}
	})
}

func TestSetPageBitmap(t *testing.T) {
	m := New(3 * PageSize)
	m.SetLineFailed(LinesPerPage + 5)
	m.SetPageBitmap(1, 1<<0|1<<63)
	if m.PageBitmap(1) != 1<<0|1<<63 || m.LineFailed(LinesPerPage+5) || !m.LineFailed(2*LinesPerPage-1) {
		t.Fatalf("page 1 reads %#x after SetPageBitmap: it replaces the page's bitmap", m.PageBitmap(1))
	}
	if m.FailedLines() != 2 || !m.PagePerfect(0) || !m.PagePerfect(2) {
		t.Fatal("SetPageBitmap touched another page")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPageBitmap past the last page did not panic")
		}
	}()
	m.SetPageBitmap(3, 1)
}

// oversizedRLE is the 14-byte hostile input: a valid magic, a header that
// claims 1<<46 lines (an 8 TB map) and one run.
func oversizedRLE() []byte {
	data := binary.BigEndian.AppendUint32(nil, rleMagic)
	data = binary.AppendUvarint(data, 1<<46)
	return binary.AppendUvarint(data, 1<<20)
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodeRLERefusesOversizedHeader(t *testing.T) {
	if len(oversizedRLE()) != 14 {
		t.Fatalf("the hostile input is %d bytes, want 14", len(oversizedRLE()))
	}
	justOver := binary.AppendUvarint(binary.BigEndian.AppendUint32(nil, rleMagic), maxRLELines+1)
	for _, data := range [][]byte{oversizedRLE(), append(justOver, 0)} {
		var err error
		if got := allocatedBy(func() { _, err = DecodeRLE(data) }); got > 1<<20 {
			t.Errorf("DecodeRLE(%x) allocated %d bytes before refusing", data, got)
		}
		if err == nil {
			t.Errorf("DecodeRLE(%x) accepted a line count above the cap", data)
		}
	}
}

// FuzzDecodeRLE: whatever the bytes, DecodeRLE returns a map or an error. It
// never panics, never builds a map past the cap, and a map it returns
// survives the round trip.
func FuzzDecodeRLE(f *testing.F) {
	for _, lines := range wordwiseLines {
		for _, rate := range wordwiseRates {
			f.Add(randomMap(lines, rate, rand.New(rand.NewSource(1))).EncodeRLE())
		}
	}
	f.Add(oversizedRLE())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeRLE(data)
		if (m == nil) == (err == nil) {
			t.Fatalf("DecodeRLE returned map %v and error %v", m != nil, err)
		}
		if err != nil {
			return
		}
		if m.lines <= 0 || m.lines > maxRLELines || len(m.words) != (m.lines+63)/64 {
			t.Fatalf("decoded a map of %d lines in %d words", m.lines, len(m.words))
		}
		back, err := DecodeRLE(m.EncodeRLE())
		if err != nil || !back.Equal(m) {
			t.Fatalf("a decoded map does not round-trip (error %v)", err)
		}
	})
}

// benchSink keeps the benchmarked calls from being optimised away.
var benchSink int

func benchMap() *Map {
	m := New(1024 * PageSize)
	GenerateUniform(m, 0.10, rand.New(rand.NewSource(1)))
	return m
}

func BenchmarkGenerateUniform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		m := New(1024 * PageSize)
		GenerateUniform(m, 0.10, rng)
		benchSink += m.lines
	}
}

func BenchmarkClusterHardware(b *testing.B) {
	m := benchMap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += ClusterHardware(m, 2).lines
	}
}

func BenchmarkEncodeRLE(b *testing.B) {
	m := benchMap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(m.EncodeRLE())
	}
}
