package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// assembly is what only Boot may call. pcm.NewDevice is not on the list:
// wearsim and the wear studies build bare devices, not machines.
var assembly = map[string]string{
	"wearmem/internal/vm":     "New",
	"wearmem/internal/kernel": "New",
	"wearmem/internal/pcm":    "NewDeviceFromImage",
}

// TestBootIsTheOnlyAssemblySite parses every non-test Go file outside this
// package and bench/ (the performance ledger times the layers one by one)
// and fails on a hand-wired kernel, runtime or restored device.
func TestBootIsTheOnlyAssemblySite(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "machine") || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		banned := map[string]string{} // local package name -> constructor
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if fn, ok := assembly[p]; ok {
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				banned[name] = fn
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && banned[pkg.Name] == sel.Sel.Name {
					pos := fset.Position(call.Pos())
					t.Errorf("%s:%d: %s.%s outside internal/machine: describe the stack as a machine.Spec and call machine.Boot",
						rel, pos.Line, pkg.Name, sel.Sel.Name)
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
