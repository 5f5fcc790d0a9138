package wearmem

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// parseModule parses every Go file of the module that builds for the host
// once: the root package, internal/, cmd/, examples/ and bench/. The
// entry-point rules below are walks over its result.
func parseModule(t *testing.T) (*token.FileSet, []goFile) {
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
			if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
				return err
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
	return fset, files
}

// pkgDir is the directory of a module file, "." for the root package.
func (g goFile) pkgDir() string {
	if i := strings.LastIndex(g.path, "/"); i >= 0 {
		return g.path[:i]
	}
	return "."
}

// importPath is the import path of a module file's package.
func (g goFile) importPath() string {
	if dir := g.pkgDir(); dir != "." {
		return "wearmem/" + dir
	}
	return "wearmem"
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
	_, files := parseModule(t)
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

// testOnly lists what under internal/ stays although no program reaches
// it, keyed as TestInternalEntryPointsReached reports it: pkg.Func,
// pkg.Type.Method, pkg.Name for a package-level const, var or type, and
// pkg.Type.Field for a field. Each is one of six kinds: a method the
// standard library calls through an interface, a reference implementation
// tests compare against, a test observable several packages' tests read,
// a negative control, state a test reads as evidence, or an arraylet entry
// point awaiting the keep-or-delete measurement.
var testOnly = map[string]string{
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

	// Negative controls: tests cripple a checker with these and prove it
	// then misses a planted bug.
	"verify.Options.SkipGraph":      "TestHeapPlantedFindings: each graph finding goes with the walk",
	"verify.Options.SkipBuffer":     "TestHeapPlantedFindings: each buffer finding goes with the check",
	"chaos.Options.SkipKernelTable": "TestBreakSilentTaint: a crippled campaign verifier misses a silent taint",

	// State tests read as evidence.
	"kernel.RecoverStats.PolicyRestored": "the policy tests and FuzzRecoverImage read it as proof policy state came back",
	"heap.offHeap":                       "which backing the build chose, read by the heap tests",

	// Arraylets (§3.3.3), pending the measured keep-or-delete of ROADMAP
	// item 2; bench/ already names their cost, stats.EvArrayletHop.
	"vm.VM.NewDiscontiguousBytes": "arraylet allocation",
	"vm.VM.DiscontiguousByte":     "arraylet element read",
	"vm.VM.SetDiscontiguousByte":  "arraylet element write",
}

// Everything declared in a non-test file under internal/ must be reached by
// a non-test file of the module — a command, an example, bench/ or the
// runtime itself:
//   - a func or method must be called, taken as a value or referenced; a
//     method also counts as reached when its receiver implements an
//     interface whose same-named method a non-test file selects;
//   - a package-level const, var or type must be used;
//   - a struct field a non-test file writes (a keyed composite literal or
//     a plain assignment; an inc/dec or op= reads the field as well) must
//     be read; a field with a json tag is exempt, encoding/json reads it;
//   - an exported field of an exported struct that a non-test file reads
//     must be set: by a keyed or positional literal, an assignment, &x.F, a
//     method call on x.F, or encoding/json decoding a value that holds it.
//
// The module's non-test files are type-checked, so each name resolves to
// the object it denotes: a method of one type is not reached through a
// same-named method of another. What only tests reach is code and state
// kept compiling with no program depending on it: delete it, or record why
// it stays in testOnly.
func TestInternalEntryPointsReached(t *testing.T) {
	fset, files := parseModule(t)
	info := typeCheck(t, fset, files)
	u := usesOf(info, files)
	broken := map[string]string{} // key → the clause it breaks
	seen := map[string]bool{}
	check := func(key string, ok bool, clause string) {
		seen[key] = true
		switch _, listed := testOnly[key]; {
		case listed && ok:
			t.Errorf("%s is reached by a program now: drop it from testOnly", key)
		case !listed && !ok:
			broken[key] = clause
		}
	}
	for _, g := range files {
		if g.test || !strings.HasPrefix(g.path, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(g.pkgDir(), "internal/")
		for _, decl := range g.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					continue
				}
				fn := info.Defs[d.Name].(*types.Func)
				if d.Recv == nil {
					check(pkg+"."+d.Name.Name, u.used[fn], "only tests reach it")
				} else {
					check(pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name,
						u.used[fn] || u.implemented(fn), "only tests reach it")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								check(pkg+"."+n.Name, u.used[info.Defs[n]], "only tests use it")
							}
						}
					case *ast.TypeSpec:
						check(pkg+"."+s.Name.Name, u.used[info.Defs[s.Name]], "only tests use it")
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							json := f.Tag != nil && strings.Contains(f.Tag.Value, `json:`)
							for _, n := range f.Names {
								if n.Name == "_" {
									continue
								}
								v, key := info.Defs[n], pkg+"."+s.Name.Name+"."+n.Name
								switch {
								case u.written[v] && !u.read[v] && !json:
									check(key, false, "written, never read")
								case s.Name.IsExported() && n.IsExported() && u.read[v] && !u.set[v]:
									check(key, false, "read, never set")
								default:
									check(key, true, "")
								}
							}
						}
					}
				}
			}
		}
	}
	for key := range testOnly {
		if !seen[key] {
			t.Errorf("testOnly lists %s, which no internal/ file declares", key)
		}
	}
	if len(broken) > 0 {
		keys := make([]string, 0, len(broken))
		for key := range broken {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			t.Errorf("%s: %s", key, broken[key])
		}
		t.Errorf("%d internal/ declarations only tests reach", len(broken))
	}
}

// usage is what the module's non-test files do with each object.
type usage struct {
	used     map[types.Object]bool // named anywhere but its declaration
	written  map[types.Object]bool // fields: a keyed literal, a plain assignment
	read     map[types.Object]bool // fields: any other use
	set      map[types.Object]bool // fields: written, or the other ways a value lands
	selected map[string][]*types.Interface
}

// usesOf classifies every use of an object in the module's non-test files.
func usesOf(info *types.Info, files []goFile) *usage {
	u := &usage{used: map[types.Object]bool{}, written: map[types.Object]bool{},
		read: map[types.Object]bool{}, set: map[types.Object]bool{},
		selected: map[string][]*types.Interface{}}
	writes := map[*ast.Ident]bool{} // field names in a write position
	sets := map[*ast.Ident]bool{}   // field names set some other way
	setAll := func(typ types.Type) {
		if ptr, ok := typ.Underlying().(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				u.set[st.Field(i).Origin()] = true
			}
		}
	}
	decoded := map[types.Type]bool{}
	var decode func(types.Type)
	decode = func(typ types.Type) {
		if decoded[typ] {
			return
		}
		decoded[typ] = true
		switch x := typ.Underlying().(type) {
		case *types.Pointer:
			decode(x.Elem())
		case *types.Slice:
			decode(x.Elem())
		case *types.Array:
			decode(x.Elem())
		case *types.Map:
			decode(x.Elem())
		case *types.Struct:
			for i := range x.NumFields() {
				if f := x.Field(i); f.Exported() {
					u.set[f.Origin()] = true
					decode(f.Type())
				}
			}
		}
	}
	sel := func(x ast.Expr) *ast.Ident {
		if s, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			return s.Sel
		}
		return nil
	}
	for _, g := range files {
		if g.test {
			continue
		}
		ast.Inspect(g.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				keyed := false
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						keyed = true
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
				if !keyed && len(n.Elts) > 0 {
					setAll(info.TypeOf(n))
				}
			case *ast.AssignStmt:
				// x.F op= v reads x.F as well as setting it.
				plain := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
				for _, x := range n.Lhs {
					if id := sel(x); id != nil {
						writes[id], sets[id] = plain, true
					}
				}
			case *ast.IncDecStmt:
				if id := sel(n.X); id != nil {
					sets[id] = true // and reads it, like op=
				}
			case *ast.UnaryExpr:
				if id := sel(n.X); id != nil && n.Op == token.AND {
					sets[id] = true
				}
			case *ast.CallExpr:
				if fn, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if id := sel(fn.X); id != nil {
						sets[id] = true
					}
					if callee, ok := info.Uses[fn.Sel].(*types.Func); ok && callee.Pkg() != nil &&
						callee.Pkg().Path() == "encoding/json" && (callee.Name() == "Unmarshal" || callee.Name() == "Decode") {
						decode(info.TypeOf(n.Args[len(n.Args)-1]))
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			fn := o.Origin()
			u.used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					u.selected[fn.Name()] = append(u.selected[fn.Name()], iface)
				}
			}
		case *types.Var:
			if !o.IsField() {
				u.used[o] = true
				continue
			}
			f := o.Origin()
			if writes[id] {
				u.written[f], u.set[f] = true, true
			} else {
				u.read[f] = true
				u.set[f] = u.set[f] || sets[id]
			}
		default:
			u.used[obj] = true
		}
	}
	return u
}

// implemented reports whether a method's receiver implements an interface
// whose same-named method a non-test file selects. The method set of *T
// holds T's methods too, so *T answers for both.
func (u *usage) implemented(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range u.selected[fn.Name()] {
		if types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// typeCheck type-checks every non-test package of the module, each once:
// the standard library from its source, module packages from their parsed
// files. The returned Info holds what each identifier of those files
// defines and denotes.
func typeCheck(t *testing.T, fset *token.FileSet, files []goFile) *types.Info {
	t.Helper()
	m := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}},
	}
	for _, g := range files {
		if !g.test {
			m.files[g.importPath()] = append(m.files[g.importPath()], g.ast)
		}
	}
	for path := range m.files {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m.info
}

// moduleImporter imports a module package by type-checking its non-test
// files into one shared Info, and any other package from the standard
// library's source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
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
