package main

import (
	"encoding/binary"
	"syscall"
	"time"

	"wearmem/internal/stats"
)

// hostProbe reads how fast the host is serving memory right now, so that a
// time measured on a busy host can be reported as the time it would have
// been on a quiet one.
//
// The reference host is a 2-core slice of a machine whose last-level cache
// and memory are shared with other tenants. The same binary on the same
// input runs 10-70 % slower for minutes at a time, while a register-only
// loop moves by 4 %; a chase of dependent loads over 64 MiB moves in
// proportion to every workload here (README "Repeatability": log-log slope
// 0.9-1.3). Every timed interval is bracketed by two readings and scaled to
// the reference reading. The chase is none of the repository's code, so a
// change to the program moves the workload's time and not the reading.
type hostProbe struct {
	// mem is mapped outside the Go heap: 64 MiB of live heap would double
	// the host collector's trigger and change the workload being measured.
	mem   []byte
	mask  uint32
	at    uint32 // where the chase stands; the next reading goes on from there
	loads int    // dependent loads per reading
}

const (
	probeWords = 16 << 20 // 64 MiB of 4-byte slots: far beyond the private L2
	probeLoads = 1 << 18  // dependent loads per reading at full size
	// refLoadNS is what the chase reads on the reference host when it is
	// quiet, so that seconds "at reference speed" are that host's seconds.
	refLoadNS = 150.0
)

// newHostProbe maps and fills the chase. scale shrinks it with everything
// else for the unit test.
func newHostProbe(scale float64) (*hostProbe, error) {
	words := 1 << 12
	for float64(words) < probeWords*scale {
		words <<= 1
	}
	mem, err := syscall.Mmap(-1, 0, 4*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &hostProbe{mem: mem, mask: uint32(words - 1), loads: max(int(probeLoads*scale), 1<<10)}
	// A full-period linear congruential step (Hull-Dobell: c odd, a-1 a
	// multiple of 4) visits every slot once per cycle with no stride a
	// prefetcher can follow.
	for i := 0; i < words; i++ {
		binary.LittleEndian.PutUint32(mem[4*i:], (uint32(i)*1664525+1013904223)&p.mask)
	}
	return p, nil
}

func (p *hostProbe) close() { syscall.Munmap(p.mem) }

// residentMB is what the probe adds to the process's resident set.
func (p *hostProbe) residentMB() float64 { return float64(len(p.mem)) / (1 << 20) }

// loadNS is the median of five readings of nanoseconds per dependent load.
func (p *hostProbe) loadNS() float64 {
	var xs []float64
	at := p.at
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < p.loads; i++ {
			at = binary.LittleEndian.Uint32(p.mem[4*at:]) & p.mask
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(p.loads))
	}
	p.at = at
	return stats.Median(xs)
}

// atReference scales seconds measured between two probe readings to the
// reference host speed.
func atReference(seconds, before, after float64) float64 {
	return seconds * refLoadNS / ((before + after) / 2)
}
