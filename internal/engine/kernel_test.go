package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyThePoolStartsGoroutines holds the kernel's claim that pool.run is
// the engine's one goroutine site: it parses the package's non-test files
// and fails on any go statement outside (*pool).run in kernel.go.
func TestOnlyThePoolStartsGoroutines(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, decl := range f.Decls {
			if name == "kernel.go" && isPoolRun(decl) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement outside (*pool).run", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	if parsed == 0 {
		t.Fatal("parsed no source files")
	}
}

// isPoolRun reports whether decl is the method run on *pool.
func isPoolRun(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil || fn.Name.Name != "run" || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "pool"
}
