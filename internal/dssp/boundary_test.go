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
// (Codec.OpenResult, Codec.OpenResultInto), a statement sealed into the
// client's scratch (Codec.LendQuery, Codec.LendUpdate) and a seal span
// recorded (obs.StageSeal) only in internal/dssp, by Client; and the
// untrusted side serves sealed statements
// from one function, whatever Front stands behind it — the OpQuery and
// OpUpdate frame handlers are installed in one place — through one frame
// dispatcher, the one function that looks a handler up by a frame's op.
func TestTrustBoundaryIsOnePlace(t *testing.T) {
	root := filepath.Join("..", "..")
	here := filepath.Join(root, "internal", "dssp")
	fset := token.NewFileSet()
	statementServers, dispatchers := map[string]bool{}, map[string]bool{}
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
			where := fset.Position(fn.Pos()).Filename + ":" + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if _, handler := n.Value.(*ast.FuncLit); handler && isStatementOp(n.Key) {
						statementServers[where] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if ix, ok := lhs.(*ast.IndexExpr); ok && isStatementOp(ix.Index) {
							statementServers[where] = true
						}
					}
				case *ast.IndexExpr:
					if sel, ok := n.Index.(*ast.SelectorExpr); ok && sel.Sel.Name == "op" {
						dispatchers[where] = true
					}
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "obs" && n.Sel.Name == "StageSeal" && !trusted {
						t.Errorf("%s: %s records a seal span; only dssp.Client seals", fset.Position(n.Pos()), fn.Name.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if clientOnly[sel.Sel.Name] && !trusted {
						t.Errorf("%s: %s calls %s; only dssp.Client seals into its scratch and opens", fset.Position(n.Pos()), fn.Name.Name, sel.Sel.Name)
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
		t.Errorf("the OpQuery/OpUpdate frame handlers are installed in %d functions (%v), want one", len(statementServers), statementServers)
	}
	if len(dispatchers) != 1 {
		t.Errorf("frames are dispatched by op in %d functions (%v), want one", len(dispatchers), dispatchers)
	}
}

// clientOnly names the codec's methods only the trusted client calls: its
// seal and its open.
var clientOnly = map[string]bool{"OpenResult": true, "OpenResultInto": true, "LendQuery": true, "LendUpdate": true}

// isStatementOp reports whether x names the OpQuery or OpUpdate frame op.
func isStatementOp(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == "OpQuery" || x.Name == "OpUpdate"
	case *ast.SelectorExpr:
		return x.Sel.Name == "OpQuery" || x.Sel.Name == "OpUpdate"
	}
	return false
}
