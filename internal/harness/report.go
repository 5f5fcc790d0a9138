package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
)

// CellKind classifies a table value so machine-readable emitters can
// render it as data rather than re-parsing display text.
type CellKind int

const (
	// CellLabel is descriptive text: benchmark names, configuration
	// labels, units.
	CellLabel CellKind = iota
	// CellNumber is a numeric measurement; Num holds the value.
	CellNumber
	// CellDNF marks a configuration that did not finish (the paper's
	// truncated curves). JSON renders it as null.
	CellDNF
	// CellEmpty is a blank cell.
	CellEmpty
)

// cellKindNames is each kind's name on disk: String writes it and
// Cell.UnmarshalJSON reads it back.
var cellKindNames = [...]string{CellLabel: "label", CellNumber: "number", CellDNF: "dnf", CellEmpty: "empty"}

// String names the kind for structured output.
func (k CellKind) String() string {
	if uint(k) < uint(len(cellKindNames)) {
		return cellKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Cell is one typed table value. Text carries the exact paper-style
// rendering used by the text and CSV emitters; Num carries the underlying
// number for machine-readable emitters when Kind is CellNumber.
type Cell struct {
	Text string
	Num  float64
	Kind CellKind
}

// cellWire is a cell on disk: its kind by name, its text, and a value for
// a number cell only (DNF renders as a missing value, matching the paper's
// truncated curves).
type cellWire struct {
	Kind  string   `json:"kind"`
	Text  string   `json:"text,omitempty"`
	Value *float64 `json:"value,omitempty"`
}

// MarshalJSON writes the cell as its kind, text and number.
func (c Cell) MarshalJSON() ([]byte, error) {
	w := cellWire{Kind: c.Kind.String(), Text: c.Text}
	if c.Kind == CellNumber {
		w.Value = &c.Num
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads a cell MarshalJSON wrote.
func (c *Cell) UnmarshalJSON(data []byte) error {
	var w cellWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k := CellKind(slices.Index(cellKindNames[:], w.Kind))
	if k < 0 || (w.Value != nil) != (k == CellNumber) {
		return fmt.Errorf("harness: %s is not a label, number, dnf or empty cell with a value on a number only", data)
	}
	*c = Cell{Text: w.Text, Kind: k}
	if w.Value != nil {
		c.Num = *w.Value
	}
	return nil
}

// Text returns a label cell.
func Text(s string) Cell { return Cell{Text: s, Kind: CellLabel} }

// Textf returns a formatted label cell.
func Textf(format string, args ...any) Cell {
	return Cell{Text: fmt.Sprintf(format, args...), Kind: CellLabel}
}

// Number returns a numeric cell rendered with the given fmt verb
// (e.g. "%.3f", "%.0f%%").
func Number(v float64, format string) Cell {
	return Cell{Text: fmt.Sprintf(format, v), Num: v, Kind: CellNumber}
}

// Int returns a numeric cell for an integer count.
func Int(n int) Cell {
	return Cell{Text: fmt.Sprintf("%d", n), Num: float64(n), Kind: CellNumber}
}

// DNF returns a did-not-finish cell.
func DNF() Cell { return Cell{Text: "DNF", Kind: CellDNF} }

// Blank returns an empty cell.
func Blank() Cell { return Cell{Kind: CellEmpty} }

// Table is one experiment result: typed rows under string column headers.
type Table struct {
	Title   string   `json:"title,omitempty"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
}

// MarshalJSON writes the table with its rows as an array even when it has
// none.
func (t Table) MarshalJSON() ([]byte, error) {
	type fields Table
	if t.Rows == nil {
		t.Rows = [][]Cell{}
	}
	return json.Marshal(fields(t))
}

// MachineInfo is honest host metadata for JSON artifacts that carry
// wall-clock numbers: what machine produced them. It is never set by the
// harness itself (reports must stay host-independent by default) — the
// wearbench CLI stamps it onto reports it emits.
type MachineInfo struct {
	Cores      int    `json:"cores"`      // runtime.NumCPU at emit time
	GOMAXPROCS int    `json:"gomaxprocs"` // runtime.GOMAXPROCS(0) at emit time
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// HostMachine returns the current host's MachineInfo.
func HostMachine() MachineInfo {
	return MachineInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Report is the output of one experiment: the tables that regenerate a
// paper figure or table, plus the structured records of every simulator
// run that backed them (sorted by canonical configuration key; empty for
// analytical experiments that run no simulations).
type Report struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Machine, when non-nil, is emitted into the JSON document. Left nil
	// everywhere except the CLI so goldens and pinned output stay
	// host-independent.
	Machine *MachineInfo `json:"machine,omitempty"`
	Tables  []Table      `json:"tables"`
	Runs    []RunRecord  `json:"runs"`
}

// MarshalJSON writes the schema-versioned JSON document: the schema
// version, the typed tables and the full run-record set (each with its
// complete counter snapshot), with empty lists as arrays.
func (r Report) MarshalJSON() ([]byte, error) {
	type fields Report
	if r.Tables == nil {
		r.Tables = []Table{}
	}
	if r.Runs == nil {
		r.Runs = []RunRecord{}
	}
	return json.Marshal(struct {
		Schema int `json:"schema"`
		fields
	}{SchemaVersion, fields(r)})
}

// Render writes the report as aligned text (the text emitter).
func (r *Report) Render(w io.Writer) {
	textEmitter{}.Emit(w, r)
}

// render writes one table as aligned text.
func (t *Table) render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "\n-- %s --\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell.Text) > widths[i] {
				widths[i] = len(cell.Text)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(texts(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(texts(row), ","))
	}
}

// texts is the display text of each cell of a row.
func texts(row []Cell) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = c.Text
	}
	return out
}

// fnum formats a normalized value; zero renders as DNF (the paper's
// convention of terminating curves early).
func fnum(v float64) Cell {
	if v == 0 {
		return DNF()
	}
	return Number(v, "%.3f")
}
