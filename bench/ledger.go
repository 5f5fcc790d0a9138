package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wearmem/internal/harness"
)

// suitePin is the sha256 of `wearbench -exp all -quick -seed 42`'s standard
// output, the digest ROADMAP pins. figs and wearout together produce all 16
// reports, so the ledger checks it on runs it makes anyway.
const suitePin = "507aed0ecb6e669dce373c9a0a8de5ddadfe7fde247128ba9694d4f285e6d045"

const ledgerSchema = 1

// ledger is result.json: one complete set of runs of one commit on one host.
type ledger struct {
	Schema  int     `json:"schema"`
	Machine machine `json:"machine"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	// Workloads holds, per workload, the untraced run's end-to-end samples
	// and, when a traced pass ran, its per-layer map without the ladder.
	Workloads map[string]*workloadResult `json:"workloads"`
	// Ladder holds the ladder rungs of the traced pass.
	Ladder map[string]value `json:"ladder,omitempty"`
}

type machine struct {
	harness.MachineInfo
	CPUModel string `json:"cpuModel"`
	Commit   string `json:"commit"`
}

func hostMachine() machine {
	m := machine{MachineInfo: harness.HostMachine(), CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// runAll runs every workload in a child process of its own, one at a time,
// so peak_rss_mb is the child's and nothing runs beside a measurement: first
// the untraced pass, then (trace) the traced one. The ladder is the same for
// every workload, so only the first traced child runs it and result.json
// holds it once.
func runAll(seed int64, seconds float64, trace bool, out string, log io.Writer) (*ledger, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, false, err
	}
	led := &ledger{Schema: ledgerSchema, Machine: hostMachine(), Seed: seed, Seconds: seconds,
		Workloads: map[string]*workloadResult{}, Ladder: map[string]value{}}
	ok := true
	passes := []bool{false}
	if trace {
		passes = append(passes, true)
	}
	walls := map[bool]float64{}
	for _, traced := range passes {
		t0 := time.Now()
		for i, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", out}
			if traced {
				args = append(args, "-trace", "1")
				if i > 0 {
					args = append(args, "-no-ladder")
				}
			}
			file := childFile(out, w.name, traced)
			if err := os.Remove(file); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, false, err
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = log, os.Stderr
			runErr := cmd.Run()
			// A child that measured and failed a check exits non-zero too,
			// but leaves its result: only a child without one is an error.
			var res workloadResult
			if err := readJSON(file, &res); err != nil {
				if runErr != nil {
					err = runErr
				}
				return nil, false, fmt.Errorf("%s (trace %v): %w", w.name, traced, err)
			}
			ok = ok && res.Correct
			if !traced {
				led.Workloads[w.name] = &res
				continue
			}
			for k, v := range res.PerLayer {
				if strings.HasPrefix(k, "ladder.") {
					led.Ladder[k] = v
					delete(res.PerLayer, k)
				}
			}
			into := led.Workloads[w.name]
			into.PerLayer = res.PerLayer
			into.Notes = append(into.Notes, res.Notes...)
			into.Correct = into.Correct && res.Correct
		}
		walls[traced] = time.Since(t0).Seconds()
	}
	if trace {
		fmt.Fprintf(log, "# passes: untraced %.1f s, traced %.1f s (the traced pass also runs replays and the ladder)\n",
			walls[false], walls[true])
	}
	if seed == pinSeed {
		if got, err := suiteDigest(out); err != nil {
			return nil, false, err
		} else if got != suitePin {
			ok = false
			fmt.Fprintf(log, "# CHECK FAILED: the 16 reports hash to %s, ROADMAP pins %s\n", got, suitePin)
		} else {
			fmt.Fprintf(log, "# the 16 reports hash to the ROADMAP pin %s\n", suitePin)
		}
	}
	return led, ok, writeJSON(filepath.Join(out, "result.json"), led)
}

func childFile(out, name string, traced bool) string {
	if traced {
		return filepath.Join(out, "result-"+name+"-traced.json")
	}
	return filepath.Join(out, "result-"+name+".json")
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// suiteDigest hashes the report texts the children left in out the way
// `wearbench -exp all` prints them: each report, then a blank line.
func suiteDigest(out string) (string, error) {
	h := sha256.New()
	for _, e := range harness.All() {
		text, err := os.ReadFile(filepath.Join(out, "report-"+e.ID+".txt"))
		if err != nil {
			return "", err
		}
		h.Write(text)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Bounds -compare uses where two ledgers of the same seed are compared and
// the per-seed rule is sharper than BENCHMARK.json's cross-seed bound.
const threadedSimBound = 0.03 // sim_cycles on a threaded workload

// verdict is what -compare says about one metric on one workload.
type verdict string

const (
	within     verdict = "within"
	regressed  verdict = "REGRESSED"
	improved   verdict = "improved"
	unresolved verdict = "unresolved"
)

type comparison struct {
	Workload, Metric string
	Base, New        float64
	Worse            float64 // share of base by which New is worse (negative: better)
	Verdict          verdict
	Why              string
}

// compare judges every end-to-end metric of every workload present in both
// ledgers by choosing-metrics §6.5: worse than the bound is a regression;
// where either side's run-to-run spread exceeds the bound the metric is
// unresolved, unless every new sample beats every base sample. Simulated
// numbers on baton workloads and fail_ratio are exact: any worsening counts.
func compare(base, next *ledger) []comparison {
	var out []comparison
	for _, w := range workloads {
		a, b := base.Workloads[w.name], next.Workloads[w.name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range ledgerMetrics() {
			sa, oka := a.EndToEnd[m.Name]
			sb, okb := b.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			out = append(out, judge(&w, m, sa, sb))
		}
	}
	return out
}

func judge(w *workloadDef, m metric, a, b sample) comparison {
	c := comparison{Workload: w.name, Metric: m.Name, Base: a.Value, New: b.Value}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	delta := sign * (b.Value - a.Value)
	if a.Value != 0 {
		c.Worse = delta / a.Value
	} else if delta != 0 {
		c.Worse = delta // from zero: any rise is a whole rise
	}
	sim := strings.HasPrefix(m.Name, "sim_")
	if m.Name == "fail_ratio" || (sim && w.baton) {
		switch {
		case delta > 0:
			c.Verdict, c.Why = regressed, "exact metric got worse"
		case delta < 0:
			c.Verdict = improved
		default:
			c.Verdict = within
		}
		return c
	}
	bound := m.Bound
	if m.Name == "sim_cycles" {
		bound = threadedSimBound
	}
	allBetter, allWorse := true, true
	for _, x := range b.Samples {
		for _, y := range a.Samples {
			if sign*(x-y) >= 0 {
				allBetter = false
			}
			if sign*(x-y) <= 0 {
				allWorse = false
			}
		}
	}
	noisy := spread(a.Samples) > bound || spread(b.Samples) > bound
	switch {
	case noisy && allBetter && len(a.Samples) > 1 && len(b.Samples) > 1:
		c.Verdict, c.Why = improved, "every new sample beats every base sample"
	case noisy && !(allWorse && c.Worse > bound):
		c.Verdict = unresolved
		c.Why = fmt.Sprintf("spread %.1f%% / %.1f%% exceeds the %.0f%% bound", 100*spread(a.Samples), 100*spread(b.Samples), 100*bound)
	case c.Worse > bound:
		c.Verdict, c.Why = regressed, fmt.Sprintf("worse by more than %.0f%%", 100*bound)
	case c.Worse < -bound:
		c.Verdict = improved
	default:
		c.Verdict = within
	}
	return c
}

// printComparison writes one line per metric, grouped by workload, and
// reports whether anything regressed.
func printComparison(w io.Writer, cs []comparison) (anyRegressed bool) {
	last := ""
	for _, c := range cs {
		if c.Workload != last {
			fmt.Fprintf(w, "%s\n", c.Workload)
			last = c.Workload
		}
		fmt.Fprintf(w, "  %-16s %14.6g -> %-14.6g %+7.2f%% worse  %-10s %s\n",
			c.Metric, c.Base, c.New, 100*c.Worse, c.Verdict, c.Why)
		anyRegressed = anyRegressed || c.Verdict == regressed
	}
	return anyRegressed
}
