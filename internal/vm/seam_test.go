package vm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// engineLeaves is the closed list of functions that may read the cached
// VM.threaded bool (see the engine doc comment for why each is a branch and
// not a method): the store and allocation leaves, the per-operation poll
// and the constructor. Everything else goes through v.eng.
var engineLeaves = map[string]bool{
	"VM.barrier": true, "VM.refStore": true, "VM.writeback": true, "VM.allocGuarded": true,
	"Mutator.Safepoint": true, "New": true,
}

// engineState is what belongs to one engine and must not drift back onto
// the VM, the union of both.
var engineState = map[string]bool{"world": true, "unjoined": true, "markers": true, "running": true, "incSinceGC": true}

// TestEngineSeamIsClosed parses every non-test file of the package and fails,
// naming file:line, on a read of the threaded field outside engineLeaves, on
// a sync mutex among the VM's fields (the ownership rule is sched.Lock's) and
// on an engine's state among them.
func TestEngineSeamIsClosed(t *testing.T) {
	fset := token.NewFileSet()
	at := func(n ast.Node) string {
		pos := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sawVM := false
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = recvName(d.Recv.List[0].Type) + "." + name
				}
				if engineLeaves[name] || d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "threaded" {
						t.Errorf("%s: %s branches on the engine: make it a method of the engine interface, or argue the leaf into engineLeaves", at(sel), name)
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "VM" {
						continue
					}
					sawVM = true
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						ty := field.Type
						if star, ok := ty.(*ast.StarExpr); ok {
							ty = star.X
						}
						if sel, ok := ty.(*ast.SelectorExpr); ok && strings.HasSuffix(sel.Sel.Name, "Mutex") {
							if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
								t.Errorf("%s: VM has a sync.%s field: use sched.Lock, shared by the threaded engine's constructor", at(field), sel.Sel.Name)
							}
						}
						for _, id := range field.Names {
							if engineState[id.Name] {
								t.Errorf("%s: VM.%s is one engine's state: it lives on that engine", at(field), id.Name)
							}
						}
					}
				}
			}
		}
	}
	if !sawVM {
		t.Fatal("no VM struct found: the check is checking nothing")
	}
}

func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}
