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

// A goFile is one parsed Go file of the module, with the local names its
// imports bind.
type goFile struct {
	path    string // slash-separated, relative to the module root
	test    bool
	ast     *ast.File
	imports map[string]string // local name → import path
}

// parseModule parses every Go file of the module once: the root package,
// internal/, cmd/, examples/ and bench/. The entry-point rules below are
// walks over its result.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	for _, dir := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && (dir == "." || d.Name() == "testdata") {
					return filepath.SkipDir // "." is the root package alone
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			g := goFile{path: filepath.ToSlash(path), test: strings.HasSuffix(path, "_test.go"),
				ast: f, imports: map[string]string{}}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				local := ip[strings.LastIndex(ip, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				g.imports[local] = ip
			}
			files = append(files, g)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// pkgDir is the directory of a module file, "." for the root package.
func (g goFile) pkgDir() string {
	if i := strings.LastIndex(g.path, "/"); i >= 0 {
		return g.path[:i]
	}
	return "."
}

// qualified adds to named every N the file selects as pkg.N, where pkg
// binds the import path.
func (g goFile) qualified(path string, named map[string]bool) {
	ast.Inspect(g.ast, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && g.imports[x.Name] == path {
				named[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// Every exported facade func or var must be named by a program: an
// example, a command, a bench/ file, or a root test other than this file.
// An entry point nothing calls is surface to document and keep compiling
// with no evidence that it works; delete it instead.
func TestFacadeEntryPointsReached(t *testing.T) {
	files := parseModule(t)
	named := map[string]bool{}
	for _, g := range files {
		switch {
		case g.pkgDir() == ".":
			if g.test && g.path != "facade_test.go" {
				ast.Inspect(g.ast, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						named[id.Name] = true
					}
					return true
				})
			}
		case !strings.HasPrefix(g.path, "internal/"):
			g.qualified("wearmem", named)
		}
	}
	var unreached []string
	for _, g := range files {
		if g.pkgDir() != "." || g.test {
			continue
		}
		for _, decl := range g.ast.Decls {
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

// testOnlyEntryPoints are the exported internal/ funcs and methods that
// stay although only tests name them, keyed as TestInternalEntryPointsReached
// reports them. Each is one of four kinds: a method the standard library
// calls through an interface, a reference implementation tests compare
// against, a test observable several packages' tests read, or an arraylet
// entry point awaiting the keep-or-delete measurement.
var testOnlyEntryPoints = map[string]string{
	// Called by the standard library through an interface.
	"sched.Panic.Unwrap":         "errors.Is and errors.As unwrap a mutator panic",
	"harness.Cell.MarshalJSON":   "encoding/json writes a report cell",
	"harness.Cell.UnmarshalJSON": "encoding/json reads a report cell",
	"harness.Report.MarshalJSON": "encoding/json writes a report",
	"harness.Table.MarshalJSON":  "encoding/json writes a report table",

	// Reference implementations tests compare against.
	"heap.Model.EachRef":      "the reference the collectors' RefSlots walk is held to",
	"failmap.Map.AnyFailedIn": "the per-range reference core's block line states are held to",

	// Test observables.
	"kernel.Kernel.FreePCMPages": "the pool tests' and the race test's count of frames left",
	"heap.Parked":                "heap, vm and harness tests check released backings are reused",
	"failmap.Map.Equal":          "map comparison in failmap, kernel, vm, chaos and harness tests",
	"failmap.Map.LineFailed":     "a line's state, read by failmap, kernel, pcm and verify tests",
	"failmap.Map.SetLineFailed":  "builds injected maps in core, kernel, vm, verify and chaos tests",
	"pcm.Device.WriteCount":      "per-line wear that pcm and vm tests read",

	// Arraylets (§3.3.3), pending the measured keep-or-delete of ROADMAP
	// item 2; bench/ already names their cost, stats.EvArrayletHop.
	"vm.VM.NewDiscontiguousBytes": "arraylet allocation",
	"vm.VM.DiscontiguousByte":     "arraylet element read",
	"vm.VM.SetDiscontiguousByte":  "arraylet element write",
}

// Every exported func and method declared in a non-test file under
// internal/ must be named by a non-test file of the module: a call, a
// method value, or a reference from another package, a command, an
// example or bench/. A package-level func counts as named by pkg.F through
// its import or by F inside its own package; a method by any selector .M
// whose left side is not an imported package. An entry point only tests
// reach is code kept compiling with no program depending on it: delete it,
// or record why it stays in testOnlyEntryPoints.
func TestInternalEntryPointsReached(t *testing.T) {
	files := parseModule(t)
	funcs := map[string]bool{}   // import path + "." + name, for package-level funcs
	methods := map[string]bool{} // selected names, for methods
	for _, g := range files {
		if g.test {
			continue
		}
		self := "wearmem"
		if dir := g.pkgDir(); dir != "." {
			self += "/" + dir
		}
		// A declaration does not name itself, and x.N names N only as a
		// qualified func or a method.
		skip := map[*ast.Ident]bool{}
		for _, decl := range g.ast.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				skip[d.Name] = true
			}
		}
		ast.Inspect(g.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && g.imports[x.Name] != "" {
					funcs[g.imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					methods[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !skip[n] {
					funcs[self+"."+n.Name] = true
				}
			}
			return true
		})
	}
	var unreached []string
	seen := map[string]bool{}
	for _, g := range files {
		if g.test || !strings.HasPrefix(g.path, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(g.pkgDir(), "internal/")
		for _, decl := range g.ast.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || !d.Name.IsExported() {
				continue
			}
			key, reached := pkg+"."+d.Name.Name, funcs["wearmem/"+g.pkgDir()+"."+d.Name.Name]
			if d.Recv != nil {
				key, reached = pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, methods[d.Name.Name]
			}
			seen[key] = true
			switch _, listed := testOnlyEntryPoints[key]; {
			case listed && reached:
				t.Errorf("%s is named by a program now: drop it from testOnlyEntryPoints", key)
			case !listed && !reached:
				unreached = append(unreached, key)
			}
		}
	}
	for key := range testOnlyEntryPoints {
		if !seen[key] {
			t.Errorf("testOnlyEntryPoints lists %s, which no internal/ file declares", key)
		}
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Errorf("%d internal/ entry points only tests name: %s",
			len(unreached), strings.Join(unreached, ", "))
	}
}

// recvName is the type name of a method receiver, T for T or *T (no
// internal/ type has type parameters).
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	return x.(*ast.Ident).Name
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
