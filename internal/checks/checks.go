// Package checks evaluates SLO gate specifications against the harness's
// schema-versioned JSON report documents (the "wearbench -format json"
// output). A spec file names a report, an optional machine class, and a
// list of cell assertions — budgets on number cells, expected text on
// label cells — addressed by table title, column name and row label.
// Failures are reported explain-style: every offending cell with its
// observed value against the budget it broke, so a CI log reads like a
// diff rather than a boolean.
//
// Specs are written in a small YAML subset parsed here by hand (the
// repository takes no dependencies): full-line comments, top-level
// "key: value" scalars, one level of nested mappings, and a "checks:"
// list of "- key: value" mappings. That subset is exactly what a gate
// needs; anything fancier is a parse error, not a silent misread.
package checks

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Spec is one gate file: which report it applies to, the machine class it
// requires, and the cell assertions.
type Spec struct {
	// Report is the report ID the document must carry (e.g. "restart").
	Report string
	// MinCores gates the spec on machine class: a document produced on a
	// host with fewer cores is skipped, not failed (its concurrent-engine
	// numbers would not be representative).
	MinCores int
	// Checks are the cell assertions, evaluated in order.
	Checks []Check
}

// Check is one cell assertion: every cell in the named column of every
// matching table row must satisfy the budget. A parsed check has a name, a
// column and at least one budget, and its bounds are finite with min not
// above max.
type Check struct {
	// Name identifies the check in output.
	Name string
	// Table selects tables by substring of their title; empty selects
	// every table that has the column.
	Table string
	// Column is the exact column header the assertion reads.
	Column string
	// Row selects rows by substring of their first cell's text; empty
	// selects every row.
	Row string
	// Max and Min bound number cells (inclusive).
	Max *float64
	Min *float64
	// Equals requires the cell's text to match exactly (label cells and
	// rendered number cells both carry text).
	Equals string
}

// Document mirrors the harness JSON report schema (reportJSON): the typed
// tables plus the machine stamp. Run records are not consumed by gates.
type Document struct {
	Schema  int      `json:"schema"`
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Machine *Machine `json:"machine"`
	Tables  []Table  `json:"tables"`
}

// Machine is the host metadata the CLI stamps onto emitted documents.
type Machine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Table is one report table: rows of typed cells under column headers.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Notes   []string `json:"notes"`
}

// Cell is one typed table value ("label", "number", "dnf", "empty").
type Cell struct {
	Kind  string   `json:"kind"`
	Text  string   `json:"text"`
	Value *float64 `json:"value"`
}

// ReadDocument decodes a harness JSON report document.
func ReadDocument(r io.Reader) (*Document, error) {
	var doc Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("checks: decoding report document: %w", err)
	}
	return &doc, nil
}

// ParseSpec reads a gate file in the YAML subset described in the package
// comment. It refuses a check that could not fail (no budget, or a NaN
// one), could not pass (min above max), carries an infinite budget, or
// names no check or column, saying on which line the check starts.
func ParseSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	spec := &Spec{}
	var cur *Check     // the "- " item being filled in
	var itemLine []int // the line each check starts on
	section := ""      // the open top-level block key ("machine", "checks")
	for ln, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \t")
		trimmed := strings.TrimLeft(line, " \t")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(trimmed)
		item := strings.HasPrefix(trimmed, "- ")
		if item {
			trimmed = trimmed[2:]
		}
		key, val, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, fmt.Errorf("checks: line %d: %q is not \"key: value\"", ln+1, trimmed)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		// A quoted value is taken verbatim (e.g. a title containing ':').
		if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
			val = val[1 : len(val)-1]
		}

		switch {
		case item:
			if section != "checks" {
				return nil, fmt.Errorf("checks: line %d: list item outside checks:", ln+1)
			}
			spec.Checks = append(spec.Checks, Check{})
			cur = &spec.Checks[len(spec.Checks)-1]
			itemLine = append(itemLine, ln+1)
			if err := setCheckField(cur, key, val); err != nil {
				return nil, fmt.Errorf("checks: line %d: %w", ln+1, err)
			}
		case indent > 0 && section == "checks" && cur != nil:
			if err := setCheckField(cur, key, val); err != nil {
				return nil, fmt.Errorf("checks: line %d: %w", ln+1, err)
			}
		case indent > 0 && section == "machine":
			switch key {
			case "min_cores":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("checks: line %d: min_cores %q", ln+1, val)
				}
				spec.MinCores = n
			default:
				return nil, fmt.Errorf("checks: line %d: unknown machine key %q", ln+1, key)
			}
		case indent == 0 && val == "":
			section = key
			cur = nil
			if key != "machine" && key != "checks" {
				return nil, fmt.Errorf("checks: line %d: unknown block %q", ln+1, key)
			}
		case indent == 0 && key == "report":
			spec.Report = val
			section = ""
		default:
			return nil, fmt.Errorf("checks: line %d: unexpected %q", ln+1, line)
		}
	}
	if spec.Report == "" {
		return nil, fmt.Errorf("checks: spec names no report")
	}
	if len(spec.Checks) == 0 {
		return nil, fmt.Errorf("checks: spec has no checks")
	}
	for i, c := range spec.Checks {
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("checks: line %d: %w", itemLine[i], err)
		}
	}
	return spec, nil
}

// validate refuses a check that cannot be named in output or that passes
// or fails whatever the report says.
func (c *Check) validate() error {
	switch {
	case c.Name == "":
		return errors.New("check has no name")
	case c.Column == "":
		return fmt.Errorf("check %q has no column", c.Name)
	case c.Max == nil && c.Min == nil && c.Equals == "":
		return fmt.Errorf("check %q has no max, min or equals, so it passes every cell", c.Name)
	case c.Max != nil && c.Min != nil && *c.Min > *c.Max:
		return fmt.Errorf("check %q has min %v above max %v, so it fails every cell", c.Name, *c.Min, *c.Max)
	}
	return nil
}

// setCheckField assigns one "key: value" pair of a checks-list item.
func setCheckField(c *Check, key, val string) error {
	switch key {
	case "name":
		c.Name = val
	case "table":
		c.Table = val
	case "column":
		c.Column = val
	case "row":
		c.Row = val
	case "equals":
		c.Equals = val
	case "max", "min":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%s %q is not a finite number", key, val)
		}
		if key == "max" {
			c.Max = &f
		} else {
			c.Min = &f
		}
	default:
		return fmt.Errorf("unknown check key %q", key)
	}
	return nil
}

// Result is one check's evaluation: how many cells it covered and the
// explain-style failure lines (empty when the check passed).
type Result struct {
	Check    Check
	Cells    int
	Failures []string
}

// Ok reports whether the check passed over a non-empty selection.
func (r Result) Ok() bool { return len(r.Failures) == 0 && r.Cells > 0 }

// Outcome is a full evaluation: per-check results, or a skip.
type Outcome struct {
	Results []Result
	// Skipped is the machine-class explanation when the document's host
	// does not meet the spec's gate; Results is empty then.
	Skipped string
}

// Ok reports whether every check passed (a machine-class skip passes).
func (o *Outcome) Ok() bool {
	if o.Skipped != "" {
		return true
	}
	for _, r := range o.Results {
		if !r.Ok() {
			return false
		}
	}
	return true
}

// Evaluate runs every check of the spec against the document. A check
// that selects no cells fails — a gate that silently matches nothing is
// drift, not a pass.
func Evaluate(spec *Spec, doc *Document) (*Outcome, error) {
	if doc.ID != spec.Report {
		return nil, fmt.Errorf("checks: spec is for report %q, document is %q", spec.Report, doc.ID)
	}
	if spec.MinCores > 0 {
		if doc.Machine == nil {
			return nil, fmt.Errorf("checks: spec gates on machine class but the document carries no machine stamp")
		}
		if doc.Machine.Cores < spec.MinCores {
			return &Outcome{Skipped: fmt.Sprintf("machine class: %d cores < required %d",
				doc.Machine.Cores, spec.MinCores)}, nil
		}
	}
	out := &Outcome{}
	for _, c := range spec.Checks {
		out.Results = append(out.Results, evaluateCheck(c, doc))
	}
	return out, nil
}

// evaluateCheck applies one assertion to every selected cell.
func evaluateCheck(c Check, doc *Document) Result {
	res := Result{Check: c}
	for _, t := range doc.Tables {
		if c.Table != "" && !strings.Contains(t.Title, c.Table) {
			continue
		}
		col := -1
		for i, name := range t.Columns {
			if name == c.Column {
				col = i
				break
			}
		}
		if col < 0 {
			if c.Table != "" {
				res.Failures = append(res.Failures,
					fmt.Sprintf("table %q has no column %q", t.Title, c.Column))
			}
			continue
		}
		for _, row := range t.Rows {
			if len(row) == 0 {
				continue
			}
			label := row[0].Text
			if c.Row != "" && !strings.Contains(label, c.Row) {
				continue
			}
			if col >= len(row) {
				res.Failures = append(res.Failures, fmt.Sprintf(
					"table %q row %q: no cell in column %q (row ends early)", t.Title, label, c.Column))
				continue
			}
			res.Cells++
			checkCell(&res, t.Title, label, row[col])
		}
	}
	if res.Cells == 0 && len(res.Failures) == 0 {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"selected no cells (table ~%q, column %q, row ~%q) — report drifted from the gate",
			c.Table, c.Column, c.Row))
	}
	return res
}

// checkCell asserts the budgets against one cell, appending explain-style
// failure lines: where, what was observed, which budget broke.
func checkCell(res *Result, title, label string, cell Cell) {
	c := res.Check
	at := fmt.Sprintf("table %q row %q column %q", title, label, c.Column)
	if c.Max != nil || c.Min != nil {
		if cell.Kind != "number" || cell.Value == nil {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: %s cell %q where a number was budgeted", at, cell.Kind, cell.Text))
			return
		}
		if c.Max != nil && *cell.Value > *c.Max {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: %v exceeds max %v (by %+.4g)", at, *cell.Value, *c.Max, *cell.Value-*c.Max))
		}
		if c.Min != nil && *cell.Value < *c.Min {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: %v below min %v (by %+.4g)", at, *cell.Value, *c.Min, *cell.Value-*c.Min))
		}
	}
	if c.Equals != "" && cell.Text != c.Equals {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"%s: %q, want %q", at, cell.Text, c.Equals))
	}
}
