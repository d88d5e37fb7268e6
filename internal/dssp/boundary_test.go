package dssp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The trust boundary is one package: in every non-test file of the module
// (bench/ is its own module and out of reach), a result is opened
// (Codec.OpenResult) and a seal span recorded (obs.StageSeal) only in
// internal/dssp, by Client; and the untrusted side serves sealed statements
// — the PathQuery and PathUpdate handlers — from one function, whatever
// Front stands behind it.
func TestTrustBoundaryIsOnePlace(t *testing.T) {
	root := filepath.Join("..", "..")
	here := filepath.Join(root, "internal", "dssp")
	fset := token.NewFileSet()
	statementServers := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		trusted := filepath.Dir(path) == here
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "obs" && n.Sel.Name == "StageSeal" && !trusted {
						t.Errorf("%s: %s records a seal span; only dssp.Client seals", fset.Position(n.Pos()), fn.Name.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if sel.Sel.Name == "OpenResult" && !trusted {
						t.Errorf("%s: %s opens a result; only dssp.Client opens", fset.Position(n.Pos()), fn.Name.Name)
					}
					if (sel.Sel.Name == "HandleFunc" || sel.Sel.Name == "Handle") && len(n.Args) > 0 && mentionsStatementPath(n.Args[0]) {
						statementServers[fset.Position(fn.Pos()).Filename+":"+fn.Name.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(statementServers) != 1 {
		t.Errorf("the PathQuery/PathUpdate handlers are registered in %d functions (%v), want one", len(statementServers), statementServers)
	}
}

// mentionsStatementPath reports whether a route pattern names PathQuery or
// PathUpdate.
func mentionsStatementPath(pattern ast.Expr) bool {
	found := false
	ast.Inspect(pattern, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "PathQuery" || id.Name == "PathUpdate") {
			found = true
		}
		return !found
	})
	return found
}
