// Package checks evaluates SLO gate specifications against the harness's
// schema-versioned JSON report documents (the "wearbench -format json"
// output, decoded into harness.Report). A spec file names a report, an
// optional machine class, and a list of cell assertions — budgets on number
// cells, expected text on label cells — addressed by table title, column
// name and row label. Failures are reported explain-style: every offending
// cell with its observed value against the budget it broke, so a CI log
// reads like a diff rather than a boolean.
//
// Specs are JSON, decoded strictly: an unknown key, a quoted number or a
// value after the spec is an error, not a silent misread. Full-line "//"
// comments are allowed, so a gate carries its rationale next to its budgets.
package checks

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"wearmem/internal/harness"
)

// Spec is one gate file: which report it applies to, the machine class it
// requires, and the cell assertions.
type Spec struct {
	// Report is the report ID the document must carry (e.g. "restart").
	Report  string `json:"report"`
	Machine struct {
		// MinCores gates the spec on machine class: a document produced
		// on a host with fewer cores is skipped, not failed (its
		// concurrent-engine numbers would not be representative).
		MinCores int `json:"min_cores"`
	} `json:"machine"`
	// Checks are the cell assertions, evaluated in order.
	Checks []Check `json:"checks"`
}

// Check is one cell assertion: every cell in the named column of every
// matching table row must satisfy the budget. A parsed check has a name, a
// column and at least one budget, and its bounds are finite with min not
// above max.
type Check struct {
	// Name identifies the check in output.
	Name string `json:"name"`
	// Table selects tables by substring of their title; empty selects
	// every table that has the column.
	Table string `json:"table"`
	// Column is the exact column header the assertion reads.
	Column string `json:"column"`
	// Row selects rows by substring of their first cell's text; empty
	// selects every row.
	Row string `json:"row"`
	// Max and Min bound number cells (inclusive).
	Max *float64 `json:"max"`
	Min *float64 `json:"min"`
	// Equals requires the cell's text to match exactly (label cells and
	// rendered number cells both carry text).
	Equals string `json:"equals"`
}

// ReadReport decodes a harness JSON report document.
func ReadReport(r io.Reader) (*harness.Report, error) {
	var rep harness.Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("checks: decoding report document: %w", err)
	}
	return &rep, nil
}

// ParseSpec reads a JSON gate file. It refuses a spec that is not JSON (a
// NaN or infinite budget included), carries a key Spec or Check does not
// have, or has a value after it, saying on which line when the decoder
// knows it; and a check that could not fail (no budget), could not pass
// (min above max), or names no check or column, saying which check by
// index and name.
func ParseSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	data = blankComments(data)
	// The checks are decoded one by one, so an error in one names it.
	var doc struct {
		Spec
		Checks []json.RawMessage `json:"checks"`
	}
	dec := strictDecoder(data)
	err = dec.Decode(&doc)
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); err == nil && len(rest) > 0 {
		err = fmt.Errorf("line %d: a value follows the spec", lineOf(data, int64(len(data)-len(rest))))
	}
	switch e := err.(type) {
	case *json.SyntaxError:
		err = fmt.Errorf("line %d: %w", lineOf(data, e.Offset), err)
	case *json.UnmarshalTypeError:
		err = fmt.Errorf("line %d: %w", lineOf(data, e.Offset), err)
	}
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	spec := &doc.Spec
	if spec.Report == "" {
		return nil, fmt.Errorf("checks: spec names no report")
	}
	if len(doc.Checks) == 0 {
		return nil, fmt.Errorf("checks: spec has no checks")
	}
	for i, raw := range doc.Checks {
		var c Check
		err := strictDecoder(raw).Decode(&c)
		if err == nil {
			err = c.validate()
		}
		if err != nil {
			return nil, fmt.Errorf("checks: check %d %q: %w", i, c.Name, err)
		}
		spec.Checks = append(spec.Checks, c)
	}
	return spec, nil
}

// blankComments overwrites every full-line "//" comment with spaces,
// keeping its newline, so decoder offsets still map to lines of the file.
// A JSON string cannot span lines, so no such line is inside one.
func blankComments(data []byte) []byte {
	out := bytes.Clone(data)
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimLeft(line, " \t"), []byte("//")) {
			copy(line, bytes.Repeat([]byte(" "), len(line)))
		}
	}
	return out
}

// strictDecoder decodes data refusing keys the target does not have.
func strictDecoder(data []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec
}

// lineOf is the 1-based line of data that byte offset off is on.
func lineOf(data []byte, off int64) int {
	return bytes.Count(data[:min(off, int64(len(data)))], []byte("\n")) + 1
}

// validate refuses a check that cannot be named in output or that passes
// or fails whatever the report says.
func (c *Check) validate() error {
	switch {
	case c.Name == "":
		return errors.New("has no name")
	case c.Column == "":
		return errors.New("has no column")
	case c.Max == nil && c.Min == nil && c.Equals == "":
		return errors.New("has no max, min or equals, so it passes every cell")
	case c.Max != nil && c.Min != nil && *c.Min > *c.Max:
		return fmt.Errorf("has min %v above max %v, so it fails every cell", *c.Min, *c.Max)
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
	return o.Skipped != "" || !slices.ContainsFunc(o.Results, func(r Result) bool { return !r.Ok() })
}

// Evaluate runs every check of the spec against the report. A check that
// selects no cells fails — a gate that silently matches nothing is drift,
// not a pass.
func Evaluate(spec *Spec, rep *harness.Report) (*Outcome, error) {
	if rep.ID != spec.Report {
		return nil, fmt.Errorf("checks: spec is for report %q, document is %q", spec.Report, rep.ID)
	}
	if need := spec.Machine.MinCores; need > 0 {
		if rep.Machine == nil {
			return nil, fmt.Errorf("checks: spec gates on machine class but the document carries no machine stamp")
		}
		if rep.Machine.Cores < need {
			return &Outcome{Skipped: fmt.Sprintf("machine class: %d cores < required %d",
				rep.Machine.Cores, need)}, nil
		}
	}
	out := &Outcome{}
	for _, c := range spec.Checks {
		out.Results = append(out.Results, evaluateCheck(c, rep))
	}
	return out, nil
}

// evaluateCheck applies one assertion to every selected cell.
func evaluateCheck(c Check, rep *harness.Report) Result {
	res := Result{Check: c}
	for _, t := range rep.Tables {
		if c.Table != "" && !strings.Contains(t.Title, c.Table) {
			continue
		}
		col := slices.Index(t.Columns, c.Column)
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
func checkCell(res *Result, title, label string, cell harness.Cell) {
	c := res.Check
	at := fmt.Sprintf("table %q row %q column %q", title, label, c.Column)
	if c.Max != nil || c.Min != nil {
		if cell.Kind != harness.CellNumber {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: %s cell %q where a number was budgeted", at, cell.Kind, cell.Text))
			return
		}
		if c.Max != nil && cell.Num > *c.Max {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: %v exceeds max %v (by %+.4g)", at, cell.Num, *c.Max, cell.Num-*c.Max))
		}
		if c.Min != nil && cell.Num < *c.Min {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"%s: %v below min %v (by %+.4g)", at, cell.Num, *c.Min, cell.Num-*c.Min))
		}
	}
	if c.Equals != "" && cell.Text != c.Equals {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"%s: %q, want %q", at, cell.Text, c.Equals))
	}
}
