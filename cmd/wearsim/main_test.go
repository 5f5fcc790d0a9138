package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"wearmem/internal/chaos"
	"wearmem/internal/failmap"
	"wearmem/internal/pcm"
	"wearmem/internal/vm"
)

// TestMain lets the test binary stand in for the command: re-executed with
// WEARSIM_MAIN set it runs main with its arguments and exits as main does.
func TestMain(m *testing.M) {
	if os.Getenv("WEARSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wearsim runs the command with args and returns what it printed and its
// exit status.
func wearsim(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WEARSIM_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), status
}

// A named sweep runs and tallies its configuration; a planted bug fails it,
// and the reproduction it prints, run as printed, fails again.
func TestTortureSweep(t *testing.T) {
	args := []string{"-torture", "-torture-config", "S-IX/aware", "-seeds", "1", "-torture-iters", "300"}
	stdout, stderr, status := wearsim(t, args...)
	if status != 0 || !regexp.MustCompile(`(?m)^torture S-IX/aware +1 campaigns `).MatchString(stdout) ||
		!strings.Contains(stdout, "torture: all 1 campaigns passed") {
		t.Fatalf("wearsim %v: exit %d, stdout %q, stderr %q", args, status, stdout, stderr)
	}

	args = append(args, "-torture-break", "smash-header")
	stdout, stderr, status = wearsim(t, args...)
	repro := regexp.MustCompile(`(?m)^ +go run \./cmd/wearsim (.*)$`).FindStringSubmatch(stdout)
	if status != 1 || repro == nil {
		t.Fatalf("wearsim %v: exit %d, stdout %q, stderr %q; want exit 1 and a reproduction", args, status, stdout, stderr)
	}
	// The line quotes each value with spaces or commas in single quotes.
	var replay []string
	for i, s := range strings.Split(repro[1], "'") {
		if i%2 == 1 {
			replay = append(replay, s)
		} else {
			replay = append(replay, strings.Fields(s)...)
		}
	}
	if stdout, stderr, status := wearsim(t, replay...); status != 1 || !strings.Contains(stdout, "FAIL") {
		t.Errorf("reproduction %v: exit %d, stdout %q, stderr %q; want exit 1", replay, status, stdout, stderr)
	}
}

// A configuration name that is unknown, malformed or names a configuration
// the runtime refuses exits 2 with one line naming it.
func TestBadConfigExitsTwo(t *testing.T) {
	for _, name := range []string{"XX/aware", "S-IX/aware/m0", "MS/aware/m4/thr"} {
		stdout, stderr, status := wearsim(t, "-torture", "-torture-config", name)
		if status != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, name) {
			t.Errorf("-torture-config %q: exit %d, stdout %q, stderr %q; want exit 2 and one line naming it",
				name, status, stdout, stderr)
		}
	}
}

// A threaded failure's minimized schedule was shrunk on the baton twin and
// replays only there; its full schedule replays on the threaded
// configuration itself.
func TestReproCommandNamesTheEngineTheScheduleRunsOn(t *testing.T) {
	cfg := chaos.TortureConfig{Collector: vm.StickyImmix, FailureAware: true, Mutators: 4, Threaded: true}
	full := []string{"gc-begin@2:fail-here", "gc-end@3:smash-header"}
	for _, c := range []struct {
		minimized []string
		want      string
	}{
		{[]string{"gc-end@3:smash-header"}, "-torture-config 'S-IX/aware/m4' -torture-iters 300 -seed 7 -torture-schedule 'gc-end@3:smash-header'"},
		{nil, "-torture-config 'S-IX/aware/m4/thr' -torture-iters 300 -seed 7 -torture-schedule 'gc-begin@2:fail-here,gc-end@3:smash-header'"},
	} {
		if got := reproCommand(cfg, 7, 300, full, c.minimized); !strings.HasSuffix(got, c.want) {
			t.Errorf("minimized %v: got %q, want it to end %q", c.minimized, got, c.want)
		}
	}
}

// -startgap and -cluster name two remappings of one module that do not
// compose: together they exit 2 with one line naming both.
func TestStartGapWithClusterExitsTwo(t *testing.T) {
	stdout, stderr, status := wearsim(t, "-startgap", "-cluster", "2")
	if status != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
		!strings.Contains(stderr, "-startgap") || !strings.Contains(stderr, "-cluster") {
		t.Errorf("-startgap -cluster 2: exit %d, stdout %q, stderr %q; want exit 2 and one line naming both",
			status, stdout, stderr)
	}
}

// simConfig is the device the flags -pages/-endurance/-cluster describe,
// at the other flags' defaults.
func simConfig(pages int, endurance uint64, cluster int) pcm.Config {
	return pcm.Config{
		Size:         pages * failmap.PageSize,
		Endurance:    endurance,
		Variation:    0.2,
		ClusterPages: cluster,
		GapInterval:  16,
		Seed:         1,
	}
}

// Hammering a clustered module far past its first failures keeps writing
// lines the hardware has already taken, its metadata among them, until the
// whole hot quarter is gone. The session must run to the end and count
// every line of it: 1008 surfaced failures and the wear-outs of the 16
// metadata lines of its eight regions, absorbed.
func TestHammerUnderClustering(t *testing.T) {
	var out bytes.Buffer
	run(strings.NewReader("hammer 700000\nstats\n"), &out, simConfig(64, 300, 2), 1)
	m := regexp.MustCompile(`failed=(\d+) \((\d+\.\d+)%\)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("stats printed no failure rate:\n%s", tail(out.String()))
	}
	if m[1] != "1024" {
		t.Fatalf("700000 writes at endurance 300 wore out %s lines, want the hot quarter's 1024", m[1])
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
		simConfig(256, 30, 0), 2)
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
