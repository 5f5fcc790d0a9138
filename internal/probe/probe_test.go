package probe

import (
	"fmt"
	"testing"
)

// TestPointNamesRoundTrip pins what chaos.ParseEvent (the -torture-schedule
// syntax "point@N:action") and every minimal-reproduction line rest on:
// each point has a name of its own, and the name resolves back to the point.
func TestPointNamesRoundTrip(t *testing.T) {
	seen := map[string]Point{}
	for p := Point(0); p < NumPoints; p++ {
		name := p.String()
		if name == "" {
			t.Errorf("point %d has no name: add it to pointNames", p)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("points %d and %d share the name %q", prev, p, name)
		}
		seen[name] = p
		if got, ok := PointByName(name); !ok || got != p {
			t.Errorf("PointByName(%q) = %d, %v; want %d, true", name, got, ok, p)
		}
	}
}

// TestUnknownPoints: a name no point has does not resolve (the empty name
// included, which an unnamed table entry would otherwise answer to), and a
// value past the last point prints as a number instead of indexing the table.
func TestUnknownPoints(t *testing.T) {
	for _, name := range []string{"", "gc-begin ", "GC-BEGIN", "point(3)", NumPoints.String()} {
		if p, ok := PointByName(name); ok || p != 0 {
			t.Errorf("PointByName(%q) = %d, %v; want 0, false", name, p, ok)
		}
	}
	for _, p := range []Point{NumPoints, NumPoints + 1, 255} {
		if got, want := p.String(), fmt.Sprintf("point(%d)", uint8(p)); got != want {
			t.Errorf("Point(%d).String() = %q, want %q", p, got, want)
		}
	}
}
