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
// WEARCHECK_MAIN set it runs main with its arguments and exits as main does.
func TestMain(m *testing.M) {
	if os.Getenv("WEARCHECK_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wearcheck runs the command with args and returns what it printed and its
// exit status.
func wearcheck(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WEARCHECK_MAIN=1")
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

// One gate against three reports: one that meets every budget, one that
// breaks two checks and must say which cells broke them and by how much,
// and one from a host below the gate's machine class, which is skipped.
func TestGoldens(t *testing.T) {
	for _, c := range []struct {
		report string
		status int
	}{
		{"pass", 0},
		{"fail", 1},
		{"onecore", 0},
	} {
		want, err := os.ReadFile("testdata/" + c.report + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, status := wearcheck(t, "-spec", "testdata/gate.json", "testdata/"+c.report+".json")
		if status != c.status || got != string(want) || stderr != "" {
			t.Errorf("%s: exit %d (want %d), stderr %q\n got:\n%s\nwant:\n%s", c.report, status, c.status, stderr, got, want)
		}
	}
}

// A run that cannot evaluate the gate exits 2 with one line saying why and
// prints no verdict: a usage error, a spec the parser refuses, a report the
// spec is not for, and a file that is not there.
func TestUnusableRunsExitTwo(t *testing.T) {
	for _, c := range []struct {
		why  string
		args []string
		want string
	}{
		{"no -spec", []string{"testdata/pass.json"}, "usage: wearcheck -spec <gate.json> <report.json>"},
		{"no report", []string{"-spec", "testdata/gate.json"}, "usage: wearcheck -spec <gate.json> <report.json>"},
		{"unknown key", []string{"-spec", "testdata/unknown.json", "testdata/pass.json"}, `checks: check 0 "p99": json: unknown field "maximum"`},
		{"report id", []string{"-spec", "testdata/kvlat.json", "testdata/pass.json"}, `checks: spec is for report "kvlat", document is "restart"`},
		{"missing report", []string{"-spec", "testdata/gate.json", "testdata/none.json"}, "testdata/none.json"},
	} {
		stdout, stderr, status := wearcheck(t, c.args...)
		if status != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no stdout and one line containing %q",
				c.why, status, stdout, stderr, c.want)
		}
	}
}
