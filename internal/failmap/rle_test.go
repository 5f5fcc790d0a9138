package failmap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wearmem/internal/bitset"
)

// maxRLELines is the largest line count DecodeRLE accepts: a 16 GiB module,
// whose map is a 32 MB table. The count comes from the input's header, and
// the map is allocated from it before a single run is read.
const maxRLELines = 1 << 28

// DecodeRLE reconstructs a map encoded by EncodeRLE: the oracle the
// encoder, and so tab3's compressed sizes, are held to. Anything malformed
// is an error, never a panic, so an encoder bug shows as a refusal.
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
