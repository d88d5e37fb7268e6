package httpapi

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// stubRouter is a router over two nodes that exist only as a stub
// Transport answering the migration frames POSTed through it — empty
// exports, nothing imported or dropped — so a ring change runs its whole
// handoff without a socket. A node whose host begins with "fail" answers
// 500.
func stubRouter(analysis *core.Analysis) *RouterServer {
	stub := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		var req frame
		err := readFrame(bufio.NewReader(r.Body), &req, &wireBuf{}, dirRequest)
		r.Body.Close()
		var answer message
		status := http.StatusOK
		switch {
		case strings.HasPrefix(r.URL.Hostname(), "fail"):
			status = http.StatusInternalServerError
		case err != nil || r.URL.Path != PathFrames:
			status = http.StatusBadRequest
		case req.op == OpBucketExport:
			answer = new(bucketEntriesMsg)
		case req.op == OpBucketImport, req.op == OpBucketDrop:
			answer = new(countMsg)
		default:
			status = http.StatusNotFound
		}
		var body []byte
		if answer != nil {
			body = encodeFrame(&frame{op: req.op, stream: req.stream, body: answer.appendWire(nil)})
		}
		return &http.Response{
			StatusCode: status, Status: http.StatusText(status), Header: http.Header{},
			Body: io.NopCloser(bytes.NewReader(body)), Request: r,
		}, nil
	})
	return NewRouterServer(analysis, []string{"http://n0.invalid", "http://n1.invalid"},
		RouterOptions{Client: &http.Client{Transport: stub}})
}

// postAdmin sends one admin request through h without a socket.
func postAdmin(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestAdminBodiesAreBounded: each JSON admin route reads at most
// maxAdminBytes and answers 413 past it — a single giant JSON string is
// refused, not buffered whole — and 400 to a body within the bound that is
// not the JSON it asks for.
func TestAdminBodiesAreBounded(t *testing.T) {
	app := apps.Toystore()
	router := stubRouter(core.Analyze(app, core.DefaultOptions())).Handler()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	listed := Topology{Home: []HomeEndpoint{{Replicas: []string{"http://r0.invalid:1"}}}}
	primary, hub := listed.PrimaryHandler(0, homeserver.New(storage.NewDatabase(app.Schema), app, codec), nil)
	defer hub.Close()
	giant := []byte(`{"url": "http://` + strings.Repeat("x", maxAdminBytes) + `.invalid"}`)
	for _, tc := range []struct {
		name, path string
		h          http.Handler
	}{
		{"ring join", PathRingJoin, router},
		{"ring leave", PathRingLeave, router},
		{"replica register", PathReplicaRegister, primary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if rec := postAdmin(tc.h, tc.path, giant); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("a %d-byte body: %d (%s), want 413", len(giant), rec.Code, rec.Body)
			}
			for _, body := range []string{`{"url": 5}`, `{"url": "http://n9.invalid"`, `not json`, `{}`} {
				if rec := postAdmin(tc.h, tc.path, []byte(body)); rec.Code != http.StatusBadRequest {
					t.Errorf("body %s: %d (%s), want 400", body, rec.Code, rec.Body)
				}
			}
		})
	}
	if st := hub.Status(); len(st.Replicas) != 1 {
		t.Errorf("after refused hellos the hub streams to %d replicas, want the 1 listed", len(st.Replicas))
	}
	// The stub's nodes answer the migration frames, so a warm handoff runs
	// without a socket, and a node that fails its part makes it 502. Over
	// the stub's empty exports a join never calls the joining node, so the
	// failing node joins cold, takes over a template, and is drained.
	for _, steps := range [][]struct {
		path, body string
		want       int
	}{
		{{PathRingJoin, `{"url":"http://n2.invalid"}`, http.StatusOK}},
		{{PathRingJoin, `{"url":"http://fail.invalid","warm":false}`, http.StatusOK},
			{PathRingLeave, `{"url":"http://fail.invalid"}`, http.StatusBadGateway}},
	} {
		h := stubRouter(core.Analyze(app, core.DefaultOptions())).Handler()
		for _, s := range steps {
			if rec := postAdmin(h, s.path, []byte(s.body)); rec.Code != s.want {
				t.Errorf("%s %s: %d (%s), want %d", s.path, s.body, rec.Code, rec.Body, s.want)
			}
		}
	}
}

// TestHTTPCarriesOnlyAdminJSON pins what HTTP carries between processes:
// PathFrames, the one route registered for every method, and beside it GET
// routes and POST routes whose handler decodes its body through
// decodeAdmin — JSON of at most maxAdminBytes, for people and tools. A
// binary exchange is a frame op, never a route of its own. It reads every
// route the package's non-test code registers on a mux.
func TestHTTPCarriesOnlyAdminJSON(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := map[string]*ast.FuncDecl{} // by name, methods included
	var parsed []*ast.File
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, file)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				funcs[fn.Name.Name] = fn
			}
		}
	}
	frameRoutes, postRoutes := 0, 0
	for _, file := range parsed {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") || len(call.Args) != 2 {
				return true
			}
			at, route := fset.Position(call.Pos()), types.ExprString(call.Args[0])
			switch methodOf(call.Args[0]) {
			case "":
				if route != "PathFrames" {
					t.Errorf("%s: route %s is registered for every method; only PathFrames is", at, route)
				} else {
					frameRoutes++
				}
			case http.MethodGet:
			case http.MethodPost:
				postRoutes++
				if body := handlerBody(call.Args[1], funcs); body == nil {
					t.Errorf("%s: route %s: cannot find its handler's body", at, route)
				} else if !callsFunc(body, "decodeAdmin") {
					t.Errorf("%s: route %s does not decode its body through decodeAdmin: a binary exchange is a frame op", at, route)
				}
			default:
				t.Errorf("%s: route %s: want GET, or POST through decodeAdmin", at, route)
			}
			return true
		})
	}
	if frameRoutes != 1 || postRoutes == 0 {
		t.Errorf("found %d PathFrames routes and %d POST routes; want one and some", frameRoutes, postRoutes)
	}
}

// methodOf reads the method of a mux pattern written as a sum of string
// literals and path constants: "" when it starts with a constant or names
// no method, "?" when it cannot be read.
func methodOf(pattern ast.Expr) string {
	for {
		sum, ok := pattern.(*ast.BinaryExpr)
		if !ok {
			break
		}
		pattern = sum.X
	}
	switch x := pattern.(type) {
	case *ast.Ident:
		return ""
	case *ast.BasicLit:
		s, _ := strconv.Unquote(x.Value)
		if method, _, ok := strings.Cut(s, " "); ok {
			return method
		}
		return ""
	}
	return "?"
}

// handlerBody is the body of a route's handler: a function literal, or the
// function or method it names.
func handlerBody(x ast.Expr, funcs map[string]*ast.FuncDecl) *ast.BlockStmt {
	switch x := x.(type) {
	case *ast.FuncLit:
		return x.Body
	case *ast.Ident:
		if fn := funcs[x.Name]; fn != nil {
			return fn.Body
		}
	case *ast.SelectorExpr:
		if fn := funcs[x.Sel.Name]; fn != nil {
			return fn.Body
		}
	}
	return nil
}

// callsFunc reports whether body calls the package function name.
func callsFunc(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// FuzzRingAdmin fuzzes the ring admin handlers, which decode JSON from
// whoever can reach the router (ROADMAP: a fuzzer for every decoder that
// accepts outside bytes), over a stub router: each input is posted twice
// to join or leave, so the second sees the first's change (a duplicate
// join, a second leave). Nothing panics, and every answer is one the
// routes document: 200, 400, 404, 409, 413 or 502.
func FuzzRingAdmin(f *testing.F) {
	for _, seed := range []struct {
		leave bool
		body  string
	}{
		{false, `{"url":"http://n2.invalid"}`}, {false, `{"url":"http://n2.invalid","warm":false}`},
		{false, `{"url":"http://fail.invalid"}`}, {false, `{"url":"http://n0.invalid"}`},
		{false, `{"url":"https://n2.invalid"}`}, {false, `{}`}, {false, `{"url":`},
		{false, `{"url":"http://` + strings.Repeat("x", maxAdminBytes) + `"}`},
		{true, `{"node":0}`}, {true, `{"node":1,"warm":false}`}, {true, `{"url":"http://n1.invalid"}`},
		{true, `{"node":7}`}, {true, `{"node":-1}`}, {true, `{"url":"http://nowhere.invalid"}`}, {true, `[]`},
	} {
		f.Add(seed.leave, []byte(seed.body))
	}
	analysis := core.Analyze(apps.Toystore(), core.DefaultOptions())
	f.Fuzz(func(t *testing.T, leave bool, body []byte) {
		h := stubRouter(analysis).Handler()
		path := PathRingJoin
		if leave {
			path = PathRingLeave
		}
		for i := 0; i < 2; i++ {
			switch rec := postAdmin(h, path, body); rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
				http.StatusRequestEntityTooLarge, http.StatusBadGateway:
			default:
				t.Fatalf("%s %q, attempt %d: %d (%s)", path, body, i+1, rec.Code, rec.Body)
			}
		}
	})
}
