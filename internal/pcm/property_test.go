package pcm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wearmem/internal/failmap"
)

// Property: reads always return the most recent write, whether the data
// lives in the array, the failure buffer, behind start-gap rotation, or
// behind clustering redirection.
func TestReadYourWritesProperty(t *testing.T) {
	configs := []Config{
		{Size: 2 * failmap.PageSize, TrackData: true},
		{Size: 2 * failmap.PageSize, TrackData: true, WearLeveling: StartGap, GapInterval: 3},
		{Size: 2 * failmap.PageSize, TrackData: true, Endurance: 40, Variation: 0.3},
		{Size: 4 * failmap.PageSize, TrackData: true, Endurance: 25, ClusterPages: 2, BufferCap: 256, BufferReserve: 4},
	}
	for ci, cfg := range configs {
		cfg := cfg
		f := func(seed int64) bool {
			d := NewDevice(cfg, nil)
			rng := rand.New(rand.NewSource(seed))
			shadow := map[int]byte{}
			buf := make([]byte, failmap.LineSize)
			out := make([]byte, failmap.LineSize)
			for op := 0; op < 400; op++ {
				l := rng.Intn(d.Lines())
				if d.Unavailable(l) {
					continue
				}
				switch rng.Intn(3) {
				case 0, 1: // write
					v := byte(rng.Intn(256))
					buf[0] = v
					if err := d.Write(l, buf); err == ErrStalled {
						for d.BufferLen() > 0 {
							d.Drain()
						}
						continue
					}
					shadow[l] = v
				default: // read
					want, ok := shadow[l]
					if !ok {
						continue
					}
					// Failed lines forward from the buffer only until the OS
					// drains them; skip lines that went unavailable.
					if d.Unavailable(l) {
						continue
					}
					d.Read(l, out)
					if out[0] != want {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
	}
}

// Property: the failure buffer drains in FIFO order of distinct lines.
func TestFailureBufferFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := NewDevice(Config{
			Size: 4 * failmap.PageSize, Endurance: 1,
			BufferCap: 512, BufferReserve: 4, TrackData: true,
		}, nil)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, failmap.LineSize)
		var order []int
		seen := map[int]bool{}
		for i := 0; i < 60; i++ {
			l := rng.Intn(d.Lines())
			if seen[l] {
				continue
			}
			seen[l] = true
			d.Write(l, buf) // endurance 1: first write fails
			order = append(order, l)
		}
		for _, want := range order {
			rec, ok := d.Drain()
			if !ok || rec.Line != want {
				return false
			}
		}
		_, ok := d.Drain()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: FailMap and the page word UnavailablePage agree with
// Unavailable for every line, under any wear, on a plain, a leveled or a
// clustered device, whose writes reach lines already unavailable too.
func TestFailMapConsistencyProperty(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		cfg := Config{Size: 4 * failmap.PageSize, Endurance: 3, Variation: 0.2, Seed: seed,
			BufferCap: 1024, BufferReserve: 4}
		switch kind % 3 {
		case 1:
			cfg.WearLeveling, cfg.GapInterval = StartGap, 3
		case 2:
			cfg.ClusterPages = 2
		}
		d := NewDevice(cfg, nil)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, failmap.LineSize)
		for i := 0; i < 500; i++ {
			if d.Write(rng.Intn(d.Lines()), buf) == ErrStalled {
				for d.BufferLen() > 0 {
					d.Drain()
				}
			}
		}
		m := d.FailMap()
		for l := 0; l < d.Lines(); l++ {
			page := d.UnavailablePage(l / failmap.LinesPerPage)
			if un := d.Unavailable(l); m.LineFailed(l) != un || (page>>uint(l%failmap.LinesPerPage)&1 == 1) != un {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
