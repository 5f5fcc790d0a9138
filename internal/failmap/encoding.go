package failmap

import (
	"encoding/binary"

	"wearmem/internal/bitset"
)

// The OS keeps one 64-bit bitmap per physical PCM page — about 1.6% of the
// PCM pool uncompressed (§3.2.1). The paper notes that run-length encoding
// compresses this well, especially when the system is new and failures are
// rare. EncodeRLE implements that scheme so the tab3 ablation can quantify
// the saving; nothing reads the encoding back but the tests, whose decoder
// holds the sizes tab3 reports to encodings of the maps they came from.

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
