package dssp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names the exported functions and methods under internal/
// that no non-test file calls by name, each with the one-line reason it
// stays. A key is "<package>.<Func>" or "<package>.<Type>.<Method>", the
// package named by its directory under internal/.
var exportAllowList = map[string]string{
	// Shared test fixtures: a test helper in one package cannot be called
	// from another package's tests.
	"sqlparse.MustParse": "test fixture: engine, schema and sqlparse tests parse literal statements with it",
	"obs.Merge":          "test fixture: obs and simrun tests fold several registries' snapshots into one",
	"home.TierParts":     "test fixture: the home and pipeline parity tests feed an in-process tier with it",

	// Called by the standard library through an interface, never by name.
	"obs.TraceID.MarshalText":   "encoding.TextMarshaler: encoding/json writes a trace ID as text",
	"obs.TraceID.UnmarshalText": "encoding.TextUnmarshaler: encoding/json reads a trace ID from text",
	"obs.SpanID.MarshalText":    "encoding.TextMarshaler: encoding/json writes a span ID as text",
	"obs.SpanID.UnmarshalText":  "encoding.TextUnmarshaler: encoding/json reads a span ID from text",
	"sim.eventHeap.Less":        "heap.Interface: container/heap orders the event queue with it",
	"sim.eventHeap.Swap":        "heap.Interface: container/heap orders the event queue with it",
}

// TestInternalExportsHaveACaller keeps product code that only tests use out
// of internal/: every exported function and method declared there must be
// called by name from a non-test file of the repository — bench/, its own
// module, included — or carry a reason in exportAllowList. The match is by
// name (a method by its name alone, whatever its receiver), so it can miss
// an unused export but never flags one called by name; a method only the
// standard library calls, through an interface, needs its allow-list line.
func TestInternalExportsHaveACaller(t *testing.T) {
	type decl struct {
		pkg, key, pos string
		method        bool
		name          string
	}
	var decls []decl
	selected := map[string]bool{}         // every name selected as x.Name
	qualified := map[string]bool{}        // "<import path>.<Name>" selected through an import
	local := map[string]map[string]bool{} // per package directory, bare identifiers

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{}
		for _, im := range file.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		idents := local[dir]
		if idents == nil {
			idents = map[string]bool{}
			local[dir] = idents
		}
		declared := map[*ast.Ident]bool{}
		for _, dcl := range file.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			pkg, inInternal := strings.CutPrefix(dir, "internal/")
			if !inInternal || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{pkg: dir, key: key, pos: fset.Position(fn.Pos()).String(), method: fn.Recv != nil, name: fn.Name.Name})
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						qualified[ip+"."+n.Sel.Name] = true
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declared[n] {
					idents[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(file, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	found := map[string]bool{}
	for _, d := range decls {
		found[d.key] = true
		var called bool
		if d.method {
			called = selected[d.name]
		} else {
			called = local[d.pkg][d.name] || qualified["dssp/"+d.pkg+"."+d.name]
		}
		reason, allowed := exportAllowList[d.key]
		switch {
		case called && allowed:
			t.Errorf("%s: %s has a non-test caller; take it off exportAllowList", d.pos, d.key)
		case !called && !allowed:
			t.Errorf("%s: %s is exported but no non-test file calls it: delete it, move it into a test, or allow-list it with a reason", d.pos, d.key)
		case allowed && strings.TrimSpace(reason) == "":
			t.Errorf("exportAllowList[%q] gives no reason", d.key)
		}
	}
	var stale []string
	for key := range exportAllowList {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("exportAllowList names %s, which is not an exported function or method under internal/", key)
	}
}

// receiverType names a method's receiver type: T for T, *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
