package failmap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wearmem/internal/bitset"
)

// The OS keeps one 64-bit bitmap per physical PCM page — about 1.6% of the
// PCM pool uncompressed (§3.2.1). The paper notes that run-length encoding
// compresses this well, especially when the system is new and failures are
// rare. EncodeRLE/DecodeRLE implement that scheme so the tab3 ablation can
// quantify the saving; the format also serves as the persistent
// representation saved across shutdowns (§3.2.1).

// rleMagic identifies the encoding and guards against decoding garbage.
const rleMagic = 0x464d5231 // "FMR1"

// RawSize returns the size in bytes of the uncompressed OS table for this
// map: one 8-byte bitmap word per page.
func (m *Map) RawSize() int { return m.Pages() * 8 }

// EncodeRLE serializes the map as alternating run lengths of working and
// failed lines, each as a uvarint, starting with a (possibly zero) working
// run. The header carries a magic word and the line count.
func (m *Map) EncodeRLE() []byte {
	buf := make([]byte, 0, 16)
	buf = binary.BigEndian.AppendUint32(buf, rleMagic)
	buf = binary.AppendUvarint(buf, uint64(m.lines))

	// Runs start with working lines; each ends at the next line of the
	// other state.
	for i, failed := 0, false; i < m.lines; failed = !failed {
		end := m.NextFailed(i)
		if failed {
			end = bitset.NextClear(m.words, i, m.lines)
		}
		buf = binary.AppendUvarint(buf, uint64(end-i))
		i = end
	}
	return buf
}

// maxRLELines is the largest line count DecodeRLE accepts: a 16 GiB module,
// whose map is a 32 MB table. The count comes from the input's header, and
// the map is allocated from it before a single run is read.
const maxRLELines = 1 << 28

// DecodeRLE reconstructs a map encoded by EncodeRLE. The input is untrusted
// (a file given to faultgen, a table saved across a shutdown): anything
// malformed is an error, never a panic.
func DecodeRLE(data []byte) (*Map, error) {
	if len(data) < 4 || binary.BigEndian.Uint32(data) != rleMagic {
		return nil, errors.New("failmap: bad RLE magic")
	}
	data = data[4:]
	lines, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errors.New("failmap: truncated RLE header")
	}
	data = data[n:]
	if lines == 0 || lines > maxRLELines {
		return nil, fmt.Errorf("failmap: bad line count %d (want 1 to %d)", lines, maxRLELines)
	}
	m := New(int(lines) * LineSize)
	for i, failed := 0, false; i < m.lines; failed = !failed {
		run, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("failmap: truncated RLE run")
		}
		data = data[n:]
		if run > uint64(m.lines-i) {
			return nil, fmt.Errorf("failmap: run %d overflows map at line %d", run, i)
		}
		if failed {
			bitset.SetRange(m.words, i, i+int(run))
		}
		i += int(run)
	}
	if len(data) != 0 {
		return nil, errors.New("failmap: trailing bytes after RLE runs")
	}
	return m, nil
}

// CompressedSize returns the size in bytes of the RLE encoding.
func (m *Map) CompressedSize() int { return len(m.EncodeRLE()) }

// Equal reports whether two maps cover the same range with identical
// failures.
func (m *Map) Equal(o *Map) bool {
	if m.lines != o.lines {
		return false
	}
	for i, w := range m.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}
