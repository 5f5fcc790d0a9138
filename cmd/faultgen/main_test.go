package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// FAULTGEN_MAIN set it runs main with its arguments and exits as main does.
func TestMain(m *testing.M) {
	if os.Getenv("FAULTGEN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// faultgen runs the command with args and returns what it printed and its
// exit status.
func faultgen(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FAULTGEN_MAIN=1")
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

// The goldens were captured from the command before it checked its flags:
// a valid map's report must not have moved.
func TestGoldens(t *testing.T) {
	for golden, args := range map[string][]string{
		"testdata/uniform.golden":  {"-pages", "64", "-rate", "0.1", "-seed", "1"},
		"testdata/cluster2.golden": {"-pages", "64", "-rate", "0.25", "-cluster", "2", "-seed", "3"},
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got, stderr, status := faultgen(t, args...); status != 0 || got != string(want) {
			t.Errorf("faultgen %v: exit %d, stderr %q\n got:\n%s\nwant:\n%s", args, status, stderr, got, want)
		}
	}
}

// A map written with -o reads back with -i as the same map: the same report
// without the line saying where it was written.
func TestEncodedMapRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.bin")
	wrote, stderr, status := faultgen(t, "-pages", "64", "-rate", "0.25", "-cluster", "2", "-seed", "3", "-o", path)
	if status != 0 {
		t.Fatalf("-o: exit %d, stderr %q", status, stderr)
	}
	want, ok := strings.CutSuffix(wrote, "wrote "+path+"\n")
	if !ok {
		t.Fatalf("-o did not say where it wrote:\n%s", wrote)
	}
	if got, stderr, status := faultgen(t, "-i", path); status != 0 || got != want {
		t.Errorf("-i: exit %d, stderr %q\n got:\n%s\nwant:\n%s", status, stderr, got, want)
	}
}

// A flag value the generators would panic on is refused up front, by name,
// in one line, with exit status 2; a negative -cluster used to be taken
// silently as no clustering.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-pages", []string{"-pages", "0"}},
		{"-pages", []string{"-pages", "-1"}},
		{"-rate", []string{"-rate", "1.5"}},
		{"-rate", []string{"-rate", "-0.1"}},
		{"-rate", []string{"-rate", "NaN"}},
		{"-gran", []string{"-gran", "3"}},
		{"-cluster", []string{"-cluster", "-1"}},
	} {
		stdout, stderr, status := faultgen(t, c.args...)
		if status != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.flag) {
			t.Errorf("faultgen %v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				c.args, status, stdout, stderr, c.flag)
		}
	}
}
