package wearmem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Every exported symbol of the facade must carry a doc comment: the
// facade IS the documentation surface, so an undocumented re-export is a
// regression even when the underlying internal symbol is documented.
func TestFacadeSymbolsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["wearmem"]
	if pkg == nil {
		t.Fatal("package wearmem not found")
	}
	for name, f := range pkg.Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue // methods hang off documented types
				}
				if d.Doc == nil {
					t.Errorf("%s: exported func %s has no doc comment",
						fset.Position(d.Pos()), d.Name.Name)
				}
			case *ast.GenDecl:
				// A group doc comment covers the group; otherwise every
				// exported spec needs its own.
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported type %s has no doc comment",
								fset.Position(s.Pos()), s.Name.Name)
						}
					case *ast.ValueSpec:
						exported := false
						for _, n := range s.Names {
							exported = exported || n.IsExported()
						}
						if exported && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported value %v has no doc comment",
								fset.Position(s.Pos()), s.Names)
						}
					}
				}
			}
		}
	}
}

// Every exported facade func or var must be named by a program: an
// example, a command, a bench/ file, or a root test other than this file.
// An entry point nothing calls is surface to document and keep compiling
// with no evidence that it works; delete it instead.
func TestFacadeEntryPointsReached(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for name, f := range facade["wearmem"].Files {
		if strings.HasSuffix(name, "_test.go") && name != "facade_test.go" {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					named[id.Name] = true
				}
				return true
			})
		}
	}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"wearmem"` {
					local = "wearmem"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						named[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unreached []string
	for name, f := range facade["wearmem"].Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && !named[d.Name.Name] {
					unreached = append(unreached, d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						if n.IsExported() && !named[n.Name] {
							unreached = append(unreached, n.Name)
						}
					}
				}
			}
		}
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Errorf("%d facade entry points no example, command, bench/ file or root test names: %s",
			len(unreached), strings.Join(unreached, ", "))
	}
}

// facadeCoverage is the explicit disposition of every exported type in
// internal/vm and internal/chaos: either the facade name that re-exports
// it, or "-" with the omission justified by the comment. A new public
// type in either package fails TestFacadeCoversRuntimeTypes until it is
// added here — re-exported and documented in wearmem.go, or consciously
// omitted.
var facadeCoverage = map[string]string{
	// internal/vm
	"vm.VM":            "VM",
	"vm.Config":        "-", // Open builds it from options; machine.Boot fills it
	"vm.Mutator":       "Mutator",
	"vm.CollectorKind": "CollectorKind",

	// internal/chaos: the torture suite's entry point is wearsim -torture /
	// -crash, not the facade.
	"chaos.Options":        "-",
	"chaos.TortureConfig":  "-",
	"chaos.Summary":        "-",
	"chaos.Campaign":       "-",
	"chaos.CampaignRecord": "-",
	"chaos.Event":          "-",
	"chaos.Action":         "-",
	"chaos.CrashRecord":    "-",
	"chaos.CrashSummary":   "-",
	"chaos.Fired":          "-",
	"chaos.Injector":       "-",
}

// Every exported type of internal/vm and internal/chaos must have an
// entry in facadeCoverage: the facade's completeness is enforced, not
// assumed.
func TestFacadeCoversRuntimeTypes(t *testing.T) {
	for _, dir := range []string{"internal/vm", "internal/chaos"} {
		short := dir[strings.LastIndex(dir, "/")+1:]
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			for fname, f := range pkg.Files {
				if strings.HasSuffix(fname, "_test.go") {
					continue
				}
				for _, decl := range f.Decls {
					d, ok := decl.(*ast.GenDecl)
					if !ok || d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						s, ok := spec.(*ast.TypeSpec)
						if !ok || !s.Name.IsExported() {
							continue
						}
						key := short + "." + s.Name.Name
						if _, ok := facadeCoverage[key]; !ok {
							t.Errorf("%s: new public type %s is not covered by the facade — "+
								"re-export it in wearmem.go (with a doc comment) or record the "+
								"omission in facadeCoverage", fset.Position(s.Pos()), key)
						}
					}
				}
			}
		}
	}
}
