package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
)

// simConfig is the device the flags -pages/-endurance/-cluster/-startgap
// describe, at the other flags' defaults.
func simConfig(pages int, endurance uint64, cluster int, startGap bool) pcm.Config {
	cfg := pcm.Config{
		Size:         pages * failmap.PageSize,
		Endurance:    endurance,
		Variation:    0.2,
		ClusterPages: cluster,
		GapInterval:  16,
		Seed:         1,
	}
	if startGap {
		cfg.WearLeveling = pcm.StartGap
	}
	return cfg
}

// Hammering a clustered, wear-leveled module far past its first failures
// used to die in cluster.(*Region).Fail ("Fail on already-unavailable
// line"): the traffic kept writing lines the hardware had already surfaced,
// and the gap kept carrying them. The session must run to the end and
// report what wore out.
func TestHammerUnderClustering(t *testing.T) {
	var out bytes.Buffer
	run(strings.NewReader("hammer 700000\nhammer 700000\nstats\n"), &out,
		simConfig(64, 300, 2, true), 1)
	m := regexp.MustCompile(`failed=(\d+) \((\d+\.\d+)%\)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("stats printed no failure rate:\n%s", tail(out.String()))
	}
	if m[1] == "0" {
		t.Fatalf("1.4M writes at endurance 300 wore nothing out: %s", m[0])
	}
}

// Without clustering hardware the session output is pinned byte for byte
// to what the simulator printed before the REPL moved into run and the
// hammer and population commands came to share one write loop
// (`wearsim -endurance 30 -parallel 2` at that commit).
func TestSessionGoldenWithoutClustering(t *testing.T) {
	want, err := os.ReadFile("testdata/nocluster.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	run(strings.NewReader("hammer 50000\nmap\nstats\npopulation 4 60000\nquit\n"), &out,
		simConfig(256, 30, 0, false), 2)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("session output moved; got tail:\n%s\nwant tail:\n%s", tail(out.String()), tail(string(want)))
	}
}

// tail keeps failure messages readable: sessions print one line per
// failure interrupt.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}
