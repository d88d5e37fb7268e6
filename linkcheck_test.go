package dssp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowList names the non-test functions of the module that no
// binary links, each with the one-line reason it stays. A key is the name
// go tool nm gives the function, type parameters left out:
// "<import path>.<Func>", "<import path>.<Type>.<Method>" or
// "<import path>.(*<Type>).<Method>".
var linkAllowList = map[string]string{
	// Shared test fixtures: a helper in one package's test files cannot be
	// called from another package's tests.
	"dssp/internal/obs.Merge":                        "test fixture: obs and simrun tests fold several registries' snapshots into one",
	"dssp/internal/home.TierParts":                   "test fixture: the home and pipeline parity tests feed an in-process tier with it",
	"dssp/internal/home.replicaQueryBackend.QueryAt": "serves TierParts' replica endpoints, so the fixture's tier reads its replicas",
	"dssp/internal/sqlparse.MustParse":               "test fixture: engine, schema and sqlparse tests parse literal statements with it",

	// Interface markers: an empty method keeps other types out of
	// sqlparse.Statement, and nothing ever calls it.
	"dssp/internal/sqlparse.(*SelectStmt).stmtNode": "marks SelectStmt as a sqlparse.Statement",
	"dssp/internal/sqlparse.(*InsertStmt).stmtNode": "marks InsertStmt as a sqlparse.Statement",
	"dssp/internal/sqlparse.(*DeleteStmt).stmtNode": "marks DeleteStmt as a sqlparse.Statement",
	"dssp/internal/sqlparse.(*UpdateStmt).stmtNode": "marks UpdateStmt as a sqlparse.Statement",

	// The root package is public API; a runnable Example in
	// example_test.go calls each of these.
	"dssp.Float":             "public API: ExampleNewTemplate binds a Float",
	"dssp.NewSchema":         "public API: ExampleNewTemplate builds a schema",
	"dssp.NewTemplate":       "public API: ExampleNewTemplate",
	"dssp.MaxExposures":      "public API: ExampleMaxExposures",
	"dssp.SimpleToystore":    "public API: ExampleMaxExposures reads its templates",
	"dssp.(*System).Metrics": "public API: ExampleSystem_Metrics",
	"dssp.Simulate":          "public API: ExampleSimulate",
}

// TestEveryFunctionIsLinked keeps code no binary needs out of the module:
// it builds every main package of the module, and bench/'s from its own
// module, without inlining, lists what each binary links with go tool nm,
// and fails on a non-test function or method that none of them links and
// linkAllowList does not name. Unlike TestInternalExportsHaveACaller it
// matches by the linker's full name, so a function that shares its name
// with a called one is still caught.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the repository")
	}
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type pkg struct {
		ImportPath, Name, Dir string
		GoFiles               []string
	}
	var pkgs []pkg
	for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	// Build: every main package of the module into one directory, by the
	// last element of its path, and bench/ beside them.
	bin := t.TempDir()
	build := []string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}
	mains := map[string]string{"bench": "dssp/bench"} // binary -> its main package
	for _, p := range pkgs {
		if p.Name == "main" {
			build = append(build, p.ImportPath)
			mains[path.Base(p.ImportPath)] = p.ImportPath
		}
	}
	run := func(dir string, args ...string) string {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	run(".", build...)
	run("bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	// What the binaries link, by linker name: type parameters stripped,
	// a main package's functions filed under its import path, and a
	// closure ("F.func1"), a method value ("T.M-fm") or a wrapper counting
	// for the function it belongs to.
	linked := map[string]bool{}
	for file, mainPath := range mains {
		sc := bufio.NewScanner(strings.NewReader(run(".", "tool", "nm", filepath.Join(bin, file))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := stripTypeArgs(strings.Join(f[2:], " "))
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = mainPath + "." + rest
			}
			start := strings.LastIndexByte(sym, '/') + 1
			dot := strings.IndexByte(sym[start:], '.')
			if dot < 0 {
				continue
			}
			linked[sym] = true
			for i := start + dot + 1; i < len(sym); i++ {
				if (sym[i] == '.' || sym[i] == '-') && sym[i-1] != '(' {
					linked[sym[:i]] = true
				}
			}
		}
	}

	// What the module declares outside its tests, but init functions.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, p := range pkgs {
		dir, err := filepath.Rel(wd, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range p.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := p.ImportPath + "." + fn.Name.Name
				if fn.Recv != nil {
					key = p.ImportPath + "." + linkerReceiver(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				found[key] = true
				reason, allowed := linkAllowList[key]
				switch {
				case linked[key] && allowed:
					t.Errorf("%s: %s is linked; take it off linkAllowList", fset.Position(fn.Pos()), key)
				case !linked[key] && !allowed:
					t.Errorf("%s: no binary links %s: delete it, move it into a test, or allow-list it with a reason", fset.Position(fn.Pos()), key)
				case allowed && strings.TrimSpace(reason) == "":
					t.Errorf("linkAllowList[%q] gives no reason", key)
				}
			}
		}
	}
	var stale []string
	for key := range linkAllowList {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("linkAllowList names %s, which is not a non-test function of the module", key)
	}
	if len(found) == 0 || len(linked) == 0 {
		t.Fatalf("declared %d functions, linked %d: nothing was checked", len(found), len(linked))
	}
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// name, nested brackets included: "p.(*T[go.shape.[]uint8]).M" is
// "p.(*T).M".
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// linkerReceiver names a method's receiver as the linker does: T for T
// and T[P], (*T) for *T and *T[P].
func linkerReceiver(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		return fmt.Sprintf("(*%s)", receiverType(star.X))
	}
	return receiverType(e)
}
