package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// WEARBENCH_MAIN set it runs main with its arguments and exits as main does.
func TestMain(m *testing.M) {
	if os.Getenv("WEARBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wearbench runs the command with args and returns what it printed and its
// exit status.
func wearbench(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WEARBENCH_MAIN=1")
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

// The goldens were captured from the commit before the knob table and the
// experiment registry replaced the flag struct and the exported wrappers:
// the listing and a single run's statistics must not have moved.
func TestGoldens(t *testing.T) {
	for golden, args := range map[string][]string{
		"testdata/list.golden":   {"-list"},
		"testdata/single.golden": {"-bench", "pmd", "-iters", "50", "-seed", "1"},
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got, stderr, status := wearbench(t, args...); status != 0 || got != string(want) {
			t.Errorf("wearbench %v: exit %d, stderr %q\n got:\n%s\nwant:\n%s", args, status, stderr, got, want)
		}
	}
}

// An out-of-range knob is refused up front, by name, in one line, as a flag
// and as an -explain override alike; it used to panic inside the run and be
// reported as an out-of-memory DNF with exit status 0.
func TestOutOfRangeKnobsExitTwo(t *testing.T) {
	for _, c := range []struct {
		knob string
		args []string
	}{
		{"-rate", []string{"-bench", "pmd", "-rate", "1"}},
		{"-rate", []string{"-bench", "pmd", "-rate", "-0.1"}},
		{"-line", []string{"-bench", "pmd", "-line", "100"}},
		{"-mult", []string{"-bench", "pmd", "-mult", "0"}},
		{"-mult", []string{"-bench", "pmd", "-mult", "Inf", "-quick"}},
		{"-mult", []string{"-bench", "pmd", "-mult", "1e30", "-quick"}},
		{"rate=2", []string{"-explain", "rate=2 vs base"}},
		{"mult=+Inf", []string{"-explain", "mult=+Inf vs base", "-quick"}},
		{"-policy", []string{"-bench", "pmd", "-policy", "nope"}},
		// The frame policy is one knob; -placement and -remap name nothing.
		{"-placement", []string{"-bench", "pmd", "-placement", "rotate"}},
		{"-remap", []string{"-bench", "pmd", "-remap", "rotate"}},
		{"placement=rotate", []string{"-explain", "placement=rotate vs base"}},
		{"-seeds", []string{"-exp", "fig4", "-quick", "-seeds", "0"}},
		{"-seeds", []string{"-bench", "pmd", "-seeds", "-1"}},
	} {
		stdout, stderr, status := wearbench(t, c.args...)
		if status != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.knob) {
			t.Errorf("wearbench %v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				c.args, status, stdout, stderr, c.knob)
		}
	}
}

// A run that crashes is not a run that ran out of memory: the panic is
// shown and the exit status is 1.
func TestCrashIsNotOutOfMemory(t *testing.T) {
	// Bounded-pause marking on a collector without the sticky write barrier
	// panics in vm.New, inside the harness's execute.
	stdout, stderr, status := wearbench(t, "-bench", "pmd", "-iters", "50", "-collector", "IX", "-pause-budget", "1000")
	if status != 1 || !strings.Contains(stderr, "PauseBudget") || strings.Contains(stdout+stderr, "out of memory") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and the panic message", status, stdout, stderr)
	}
}
