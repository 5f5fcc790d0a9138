// Command wearcheck evaluates an SLO gate specification against a harness
// JSON report document and exits non-zero when a budget is broken.
//
// Usage:
//
//	wearcheck -spec checks/restart.json results/restart.json
//
// The spec addresses cells by table title, column and row label and
// budgets them (max/min for numbers, equals for text); see
// internal/checks. Failures print explain-style — each offending cell
// with its observed value against the broken budget — so a CI log shows
// the regression, not just that one happened.
package main

import (
	"flag"
	"fmt"
	"os"

	"wearmem/internal/checks"
)

func main() {
	spec := flag.String("spec", "", "gate specification file (JSON; required)")
	flag.Parse()
	if *spec == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wearcheck -spec <gate.json> <report.json>")
		os.Exit(2)
	}
	os.Exit(run(*spec, flag.Arg(0)))
}

func run(specPath, reportPath string) int {
	sf, err := os.Open(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer sf.Close()
	sp, err := checks.ParseSpec(sf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rf, err := os.Open(reportPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer rf.Close()
	rep, err := checks.ReadReport(rf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	out, err := checks.Evaluate(sp, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if out.Skipped != "" {
		fmt.Printf("skip %s: %s\n", sp.Report, out.Skipped)
		return 0
	}
	failed := 0
	for _, r := range out.Results {
		if r.Ok() {
			fmt.Printf("ok   %-28s %3d cells\n", r.Check.Name, r.Cells)
			continue
		}
		failed++
		fmt.Printf("FAIL %-28s %3d cells\n", r.Check.Name, r.Cells)
		for _, f := range r.Failures {
			fmt.Printf("       %s\n", f)
		}
	}
	if failed > 0 {
		fmt.Printf("wearcheck: %d of %d checks failed against %s\n", failed, len(out.Results), reportPath)
		return 1
	}
	fmt.Printf("wearcheck: all %d checks passed against %s\n", len(out.Results), reportPath)
	return 0
}
