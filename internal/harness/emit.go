package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Emitter renders a report to a writer. Emitters are pluggable backends
// over the typed report model: the text emitter reproduces the historical
// aligned-table output byte for byte, while the machine-readable emitters
// work from the typed cells and run records instead of display text.
type Emitter interface {
	Emit(w io.Writer, rep *Report) error
}

// Formats lists the selectable emitter names.
func Formats() []string { return []string{"text", "csv", "json"} }

// EmitterFor returns the emitter for a format name from Formats.
func EmitterFor(format string) (Emitter, error) {
	switch format {
	case "", "text":
		return textEmitter{}, nil
	case "csv":
		return csvEmitter{}, nil
	case "json":
		return jsonEmitter{}, nil
	}
	return nil, fmt.Errorf("harness: unknown format %q (have %s)", format, strings.Join(Formats(), ", "))
}

// textEmitter renders aligned text, byte-identical to the historical
// Report.Render output.
type textEmitter struct{}

func (textEmitter) Emit(w io.Writer, rep *Report) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", rep.ID, rep.Title)
	for i := range rep.Tables {
		rep.Tables[i].render(w)
	}
	return nil
}

// csvEmitter renders every table as comma-separated values, preceded by a
// comment line locating it within the report.
type csvEmitter struct{}

func (csvEmitter) Emit(w io.Writer, rep *Report) error {
	for i := range rep.Tables {
		t := &rep.Tables[i]
		fmt.Fprintf(w, "# %s table %d: %s\n", rep.ID, i, t.Title)
		t.CSV(w)
		if i != len(rep.Tables)-1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// jsonEmitter renders the schema-versioned document. Output is fully
// deterministic: every collection is an ordered slice and the run records
// are sorted by canonical key, so the bytes are identical at any worker
// count.
type jsonEmitter struct{}

func (jsonEmitter) Emit(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
