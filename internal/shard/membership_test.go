package shard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// Ring membership changes in one place: the planner's rebalance steps
// have production callers only in Router.Join and Router.Leave, and the
// simulator, whose fleet is fixed for the run and which only routes and
// plans fan-out through a Router, moves no bucket.
func TestMembershipChangesOnce(t *testing.T) {
	rebalance := map[string]bool{"StageRebalance": true, "CommitRebalance": true, "AbortRebalance": true}
	buckets := map[string]bool{"ExportBuckets": true, "ImportBuckets": true, "DropBuckets": true}
	root := filepath.Join("..", "..")
	simrun := filepath.Join(root, "internal", "simrun")
	fset := token.NewFileSet()
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
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			routerJoinLeave := (fn.Name.Name == "Join" || fn.Name.Name == "Leave") && receiver(fn) == "Router"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if rebalance[name] && !routerJoinLeave {
					t.Errorf("%s: %s calls %s; membership changes only in Router.Join and Router.Leave",
						fset.Position(call.Pos()), fn.Name.Name, name)
				}
				if buckets[name] && filepath.Dir(path) == simrun {
					t.Errorf("%s: %s calls %s; the simulator moves no bucket",
						fset.Position(call.Pos()), fn.Name.Name, name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiver returns the type name of a method's receiver, or "".
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
