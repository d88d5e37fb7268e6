package dssp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentsNameOnlyCodeThatExists keeps DESIGN.md and README.md in
// step with the code: every dotted name in a code span whose first part
// is a package or a type of this module names what exists — pkg.Name a
// declaration of a package of that name, pkg.Type.Member and Type.Member
// a field or method of a type of that name, promoted ones included. File
// names (dssp.go), names from outside the module (http.Server), import
// paths and metric names (cache.hit_rate) are left out, and so are the
// fenced blocks, which hold shell sessions.
func TestDocumentsNameOnlyCodeThatExists(t *testing.T) {
	m := loadModule(t)
	span := regexp.MustCompile("`[^`]+`")
	chain := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := unfenced(string(b))
		for _, loc := range span.FindAllStringIndex(text, -1) {
			code := text[loc[0]+1 : loc[1]-1]
			for _, at := range chain.FindAllStringIndex(code, -1) {
				if at[0] > 0 && strings.ContainsRune("./", rune(code[at[0]-1])) {
					continue // a path's last element, or a chain's tail
				}
				name := code[at[0]:at[1]]
				if why := m.missing(strings.Split(name, ".")); why != "" {
					line := 1 + strings.Count(text[:loc[0]], "\n")
					t.Errorf("%s:%d: `%s`: %s", doc, line, name, why)
				}
			}
		}
	}
}

// unfenced returns doc with the lines of its fenced blocks blanked, so
// that line numbers still count.
func unfenced(doc string) string {
	lines := strings.Split(doc, "\n")
	in := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence || in {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}

// module is what the non-test Go files of the module declare: per package
// name, its top-level names and its types; a package name may stand for
// two directories (the root package and internal/dssp are both dssp).
type module struct {
	decls map[string]map[string]bool      // package name → top-level names
	types map[string]map[string]*typeDecl // package name → type name → type
	named map[string][]*typeDecl          // type name → the types of that name
}

// typeDecl is one type: its fields and methods, and the names of the
// types it embeds, whose members it promotes.
type typeDecl struct {
	members map[string]bool
	embeds  []string
}

// fileExts are the extensions a file named in a code span may have.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "mod": true, "txt": true}

// missing returns why the dotted name parts names nothing, or "" when it
// names something, or starts with neither a package nor a type of the
// module.
func (m *module) missing(parts []string) string {
	x, y := parts[0], parts[1]
	if fileExts[y] || strings.Contains(y, "_") && strings.ToLower(y) == y {
		return ""
	}
	if decls, ok := m.decls[x]; ok {
		if !decls[y] {
			return "package " + x + " declares no " + y
		}
		if len(parts) > 2 {
			if td := m.types[x][y]; td != nil && !m.has([]*typeDecl{td}, parts[2]) {
				return x + "." + y + " has no field or method " + parts[2]
			}
		}
		return ""
	}
	if tds := m.named[x]; tds != nil && !m.has(tds, y) {
		return "no type " + x + " has a field or method " + y
	}
	return ""
}

// has reports whether one of tds has the member name, itself or through
// a type it embeds.
func (m *module) has(tds []*typeDecl, name string) bool {
	for _, td := range tds {
		if td.members[name] {
			return true
		}
		for _, e := range td.embeds {
			if m.has(m.named[e], name) {
				return true
			}
		}
	}
	return false
}

// loadModule parses the non-test Go files of the module (bench/ is a
// module of its own).
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{decls: map[string]map[string]bool{}, types: map[string]map[string]*typeDecl{}, named: map[string][]*typeDecl{}}
	typeOf := func(pkg, name string) *typeDecl {
		if m.types[pkg] == nil {
			m.types[pkg] = map[string]*typeDecl{}
		}
		td := m.types[pkg][name]
		if td == nil {
			td = &typeDecl{members: map[string]bool{}}
			m.types[pkg][name] = td
			m.named[name] = append(m.named[name], td)
		}
		return td
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
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
		pkg := file.Name.Name
		if m.decls[pkg] == nil {
			m.decls[pkg] = map[string]bool{}
		}
		for _, dcl := range file.Decls {
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				if dcl.Recv == nil {
					m.decls[pkg][dcl.Name.Name] = true
				} else {
					typeOf(pkg, receiverType(dcl.Recv.List[0].Type)).members[dcl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range dcl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							m.decls[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						m.decls[pkg][spec.Name.Name] = true
						td := typeOf(pkg, spec.Name.Name)
						var fields []*ast.Field
						switch st := spec.Type.(type) {
						case *ast.StructType:
							fields = st.Fields.List
						case *ast.InterfaceType:
							fields = st.Methods.List
						}
						for _, f := range fields {
							for _, n := range f.Names {
								td.members[n.Name] = true
							}
							if len(f.Names) == 0 {
								x := f.Type
								if star, ok := x.(*ast.StarExpr); ok {
									x = star.X
								}
								e := receiverType(x)
								if sel, ok := x.(*ast.SelectorExpr); ok {
									e = sel.Sel.Name
								}
								td.members[e] = true
								td.embeds = append(td.embeds, e)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(m.decls, "main") // the binaries' package name is no name a document qualifies by
	return m
}
