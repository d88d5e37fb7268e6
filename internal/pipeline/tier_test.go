package pipeline

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// TestTierTransportShapes pins the wiring rule topology by topology: the
// freshness vector exists iff something consumes it, one partition without
// replicas is its primary's transport untouched, and a partition's misses
// reach only that partition's replicas, under only that partition's floor.
func TestTierTransportShapes(t *testing.T) {
	query := func(tr Transport, group int) string {
		var served string
		tr.ExecQuery(context.Background(), wire.SealedQuery{Key: "k", Group: group}, func(r ExecQueryResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
			served = string(r.Result.Cipher)
		})
		return served
	}

	t.Run("single home", func(t *testing.T) {
		primary := &fakePrimary{}
		reg := obs.NewRegistry()
		tr, fresh := NewTierTransport([]TierPart{{Primary: primary}}, reg)
		if tr != Transport(primary) || fresh != nil {
			t.Errorf("one part without replicas = (%T, %v), want the primary transport itself and no vector", tr, fresh)
		}
		if n := len(reg.Snapshot().Metrics); n != 0 {
			t.Errorf("single-home wiring registered %d instruments, want none", n)
		}
	})

	t.Run("replicated", func(t *testing.T) {
		primary, rep := &fakePrimary{}, &fakeReplica{applied: 1}
		tr, fresh := NewTierTransport([]TierPart{{Primary: primary,
			Replicas: []ReplicaEndpoint{{Name: "a", Backend: rep}}}}, obs.NewRegistry())
		if fresh == nil || fresh.Parts() != 1 {
			t.Fatalf("vector = %v, want one floor", fresh)
		}
		if got := query(tr, 0); got != "replica" {
			t.Errorf("miss at floor 0 served by %q, want replica", got)
		}
		fresh.Raise(0, 2) // the replica has applied 1: it must now be bypassed
		if got := query(tr, 0); got != "primary" {
			t.Errorf("miss above the replica's watermark served by %q, want primary", got)
		}
	})

	t.Run("partitioned, one partition replicated", func(t *testing.T) {
		p0, p1, rep := &fakePrimary{}, &fakePrimary{}, &fakeReplica{applied: 0}
		tr, fresh := NewTierTransport([]TierPart{
			{Primary: p0},
			{Primary: p1, Replicas: []ReplicaEndpoint{{Name: "p1-0", Backend: rep}}},
		}, nil)
		if fresh == nil || fresh.Parts() != 2 {
			t.Fatalf("vector = %v, want one floor per partition", fresh)
		}
		fresh.Raise(0, 7) // partition 0's stream is no business of partition 1's replica
		if got := query(tr, 1); got != "replica" {
			t.Errorf("group 1 miss served by %q, want partition 1's replica", got)
		}
		if got := query(tr, 0); got != "primary" || p0.queries.Load() != 1 || p1.queries.Load() != 0 {
			t.Errorf("group 0 miss served by %q (p0 %d, p1 %d), want partition 0's primary",
				got, p0.queries.Load(), p1.queries.Load())
		}
		tr.ExecUpdate(context.Background(), wire.SealedUpdate{Group: 1}, func(ExecUpdateResult, error) {})
		if p0.updates.Load() != 0 || p1.updates.Load() != 1 {
			t.Errorf("group 1 update executed on p0 %d / p1 %d times, want partition 1's primary only",
				p0.updates.Load(), p1.updates.Load())
		}
	})
}

// TestTierIsWiredOnce fails when the composition NewTierTransport owns —
// replica set, group router, freshness vector — gains a second production
// call site: every non-test file of the module (bench/ is its own module
// and out of reach) may construct those only inside NewTierTransport.
func TestTierIsWiredOnce(t *testing.T) {
	owned := map[string]bool{"NewReplicaSet": true, "NewPartitionedTransport": true, "NewFreshnessParts": true}
	root := filepath.Join("..", "..")
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
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch f := call.Fun.(type) {
				case *ast.Ident:
					name = f.Name
				case *ast.SelectorExpr:
					name = f.Sel.Name
				}
				if owned[name] && fn.Name.Name != "NewTierTransport" {
					t.Errorf("%s: %s calls %s; the tier is wired in pipeline.NewTierTransport only",
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
