package cache

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/wire"
)

// boxShape is a query and an answer that fill an entry box of n values and
// m bytes exactly: one integer parameter, a key of the bytes left over,
// and a cipher of the rest, or a view result of n-1 values by pointer,
// whose strings an entry shares.
func boxShape(view bool, n, m int) (wire.SealedQuery, wire.SealedResult) {
	q := wire.SealedQuery{TemplateID: "Q2", Params: []sqlparse.Value{sqlparse.IntVal(7)}}
	if !view {
		q.Key = strings.Repeat("k", m/2)
		return q, wire.SealedResult{Cipher: make([]byte, m-len(q.Key))}
	}
	q.Key = strings.Repeat("k", m)
	r := &engine.Result{Columns: []string{"qty"}}
	for i := 1; i < n; i++ {
		r.Vals = append(r.Vals, sqlparse.IntVal(int64(i)))
	}
	return q, wire.SealedResult{Result: r}
}

// boxCase is one entry box the benchmarks and tests allocate: each class
// full, and an entry no class holds.
type boxCase struct {
	name  string
	view  bool
	n, m  int
	boxed bool // a class holds it
}

func boxCases() []boxCase {
	var cases []boxCase
	for _, c := range boxClasses {
		kind := "sealed"
		if c.view {
			kind = "view"
		}
		cases = append(cases, boxCase{fmt.Sprintf("%s%dx%d", kind, c.n, c.m), c.view, c.n, c.m, true})
	}
	return append(cases, boxCase{"fallback", true, 40, 24, false})
}

// TestEntryBoxes: an entry that fits a box class is one allocation, which
// holds the entry, its values and its bytes — the box's own size, not a
// byte more, since each class fills one of the allocator's size classes
// exactly — and an entry that fits none is three: a box without room, and
// its values and its bytes. Either way the entry keeps what it was handed.
func TestEntryBoxes(t *testing.T) {
	c, _, _ := testStack(t, nil, Options{})
	for _, bc := range boxCases() {
		q, r := boxShape(bc.view, bc.n, bc.m)
		if n, m := wire.EntrySize(&q, &r, nil); n != bc.n || m != bc.m {
			t.Fatalf("%s: the shape takes %d values and %d bytes, want %d and %d", bc.name, n, m, bc.n, bc.m)
		}
		e := c.newEntry(q, r)
		if e.Query.Key != q.Key || !sameValues(e.Query.Params, q.Params) {
			t.Fatalf("%s: the entry keeps %q %v, want %q %v", bc.name, e.Query.Key, e.Query.Params, q.Key, q.Params)
		}
		if bc.view && !sameValues(e.Result.Result.Vals, r.Result.Vals) || !bc.view && string(e.Result.Cipher) != string(r.Cipher) {
			t.Fatalf("%s: the entry keeps %+v, want %+v", bc.name, e.Result, r)
		}
		if raceEnabled {
			continue
		}
		allocs, bytes := allocated(func() { c.newEntry(q, r) })
		if want := 1.0; !bc.boxed {
			want = 3
			if allocs != want {
				t.Errorf("%s: %v allocations, want %v", bc.name, allocs, want)
			}
		} else if allocs != want {
			t.Errorf("%s: %v allocations, want %v", bc.name, allocs, want)
		} else if size := boxSize(bc.view, bc.n, bc.m); bytes != float64(size) {
			t.Errorf("%s: the box of %d bytes takes %v from the allocator", bc.name, size, bytes)
		}
	}
}

// boxSize is what a class's box takes from the allocator: the entry, a
// result in the clear, and its values and bytes — and, past 512 bytes, the
// header the allocator puts before an object that holds pointers.
func boxSize(view bool, n, m int) int {
	size := int(sizeofEntry) + n*int(sizeofValue) + m
	if view {
		size += int(sizeofResult)
	}
	if size > 512 {
		size += 8
	}
	return size
}

// allocated reports what fn allocates, per run, in objects and bytes: the
// least of three measurements on one P, as testing.AllocsPerRun takes its
// count, so that what another goroutine allocates meanwhile does not count.
func allocated(fn func()) (allocs, bytes float64) {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

func sameValues(a, b []sqlparse.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

var entrySink *Entry

// BenchmarkEntryBox is what a kept miss allocates in the cache: the entry
// of a query and an answer that fill each box class, and of one no class
// holds. Gated in BENCH_allocs.json: one allocation per class, three for
// the fallback.
func BenchmarkEntryBox(b *testing.B) {
	c, _, _ := testStack(b, nil, Options{})
	for _, bc := range boxCases() {
		q, r := boxShape(bc.view, bc.n, bc.m)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				entrySink = c.newEntry(q, r)
			}
		})
	}
}

// The sizes a box is made of.
var (
	sizeofEntry  = unsafe.Sizeof(Entry{})
	sizeofValue  = unsafe.Sizeof(sqlparse.Value{})
	sizeofResult = unsafe.Sizeof(engine.Result{})
)
