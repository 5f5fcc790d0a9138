package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"wearmem/internal/harness"
	"wearmem/internal/workload"
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

// The listing was captured from the commit before the knob table and the
// experiment registry replaced the flag struct and the exported wrappers,
// and must not have moved. The single run's report is harness.Single's one
// row; its numbers are the ones the statistics dump it replaced printed.
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
		// -explain diffs one seed; more used to be dropped without a word.
		{"-seeds", []string{"-explain", "rate=0.1 vs base", "-bench", "pmd", "-quick", "-seeds", "3"}},
	} {
		stdout, stderr, status := wearbench(t, c.args...)
		if status != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.knob) {
			t.Errorf("wearbench %v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				c.args, status, stdout, stderr, c.knob)
		}
	}
}

// -quick divides -bench's default iterations as it does every
// experiment's, at one seed and at several.
func TestQuickAppliesToBench(t *testing.T) {
	iters := strconv.Itoa(max(workload.ByName("pmd").Iterations/10, 50))
	cycles := func(args ...string) string {
		args = append([]string{"-format", "json", "-bench", "pmd", "-seed", "1"}, args...)
		stdout, stderr, status := wearbench(t, args...)
		var rep harness.Report
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("wearbench %v: exit %d, stderr %q, stdout not a report: %v", args, status, stderr, err)
		}
		return rep.Tables[0].Rows[0][1].Text
	}
	for _, seeds := range []string{"1", "2"} {
		quick, full := cycles("-seeds", seeds, "-quick"), cycles("-seeds", seeds)
		if want := cycles("-seeds", seeds, "-iters", iters); quick != want || quick == full {
			t.Errorf("-seeds %s: -quick %s cycles, -iters %s %s, neither %s; want the first two equal and the third apart",
				seeds, quick, iters, want, full)
		}
	}
}

// A run that crashes is not a run that ran out of memory: the panic is
// shown and the exit status is 1, at any seed count and in any format.
func TestCrashIsNotOutOfMemory(t *testing.T) {
	// Bounded-pause marking on a collector without the sticky write barrier
	// panics in vm.New, inside the harness's execute.
	crash := []string{"-bench", "pmd", "-iters", "50", "-collector", "IX", "-pause-budget", "1000"}
	for _, extra := range [][]string{nil, {"-seeds", "2"}, {"-format", "json"}} {
		args := append(append([]string{}, crash...), extra...)
		stdout, stderr, status := wearbench(t, args...)
		if status != 1 || !strings.Contains(stderr, "PauseBudget") || strings.Contains(stdout+stderr, "out of memory") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and the panic message", extra, status, stdout, stderr)
		}
		if extra != nil && extra[1] == "json" {
			var rep harness.Report
			if err := json.Unmarshal([]byte(stdout), &rep); err != nil || len(rep.Runs) != 1 || rep.Runs[0].Result.Panic == "" {
				t.Errorf("-format json: stdout %q; want the report, its run record carrying the panic", stdout)
			}
		}
	}
}
