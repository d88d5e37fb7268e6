package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// legacyEncodeParams is the pre-PR parameter encoding, kept verbatim as
// the regression reference: SQL-literal rendering of each value followed
// by a NUL separator. It is NOT injective — an INT and a FLOAT of equal
// numeric value render to the same decimal string — which made distinct
// statements share deterministic cache keys at blind and template
// exposure.
func legacyEncodeParams(params []sqlparse.Value) []byte {
	var buf bytes.Buffer
	for _, v := range params {
		buf.WriteString(v.String())
		buf.WriteByte('\x00')
	}
	return buf.Bytes()
}

// injectivityCorpus is a set of pairwise-distinct parameter lists,
// including the pairs that collided under the legacy encoding.
func injectivityCorpus() [][]sqlparse.Value {
	return [][]sqlparse.Value{
		nil,
		{sqlparse.Null()},
		{sqlparse.Null(), sqlparse.Null()},
		{sqlparse.IntVal(5)},
		{sqlparse.FloatVal(5)}, // legacy: collides with IntVal(5)
		{sqlparse.IntVal(-1)},
		{sqlparse.FloatVal(-1)}, // legacy: collides with IntVal(-1)
		{sqlparse.IntVal(0)},
		{sqlparse.FloatVal(0)},
		{sqlparse.FloatVal(math.Copysign(0, -1))},
		{sqlparse.StringVal("5")},
		{sqlparse.StringVal("NULL")},
		{sqlparse.StringVal("")},
		{sqlparse.StringVal("a\x00b")},
		{sqlparse.StringVal("a"), sqlparse.StringVal("b")},
		{sqlparse.StringVal("a\x00"), sqlparse.StringVal("b")},
		{sqlparse.StringVal("a"), sqlparse.StringVal("\x00b")},
		{sqlparse.StringVal("ab"), sqlparse.StringVal("")},
		{sqlparse.StringVal(""), sqlparse.StringVal("ab")},
		{sqlparse.IntVal(5), sqlparse.Null()},
		{sqlparse.Null(), sqlparse.IntVal(5)},
		{sqlparse.IntVal(strconv.IntSize)},
		{sqlparse.IntVal(math.MaxInt64)},
		{sqlparse.IntVal(math.MinInt64)},
		{sqlparse.FloatVal(math.Inf(1))},
		{sqlparse.FloatVal(math.MaxFloat64)},
	}
}

// TestEncodeParamsInjective is the regression test for the encodeParams
// collision: under the legacy NUL-separated rendering, parameter lists
// with equal renderings (e.g. INT 5 and FLOAT 5, both "5") produced equal
// cache-key material; the kind-tagged length-delimited encoding must give
// every distinct list a distinct byte string.
func TestEncodeParamsInjective(t *testing.T) {
	corpus := injectivityCorpus()

	// First, pin that the corpus really exercises the legacy bug: at
	// least one pair of distinct lists collided under the old encoding.
	legacyCollisions := 0
	for i := range corpus {
		for j := i + 1; j < len(corpus); j++ {
			if bytes.Equal(legacyEncodeParams(corpus[i]), legacyEncodeParams(corpus[j])) {
				legacyCollisions++
			}
		}
	}
	if legacyCollisions == 0 {
		t.Fatal("corpus no longer demonstrates the legacy collision; the regression test lost its teeth")
	}

	// The new encoding must distinguish every pair.
	enc := make([][]byte, len(corpus))
	for i, params := range corpus {
		enc[i] = appendParams(nil, params)
	}
	for i := range corpus {
		for j := i + 1; j < len(corpus); j++ {
			if bytes.Equal(enc[i], enc[j]) {
				t.Errorf("appendParams collision between %v and %v", corpus[i], corpus[j])
			}
		}
	}

	// And no encoding may be a prefix of another (values are concatenated
	// without a count, so prefix-freedom is what makes concatenation safe
	// inside larger messages).
	for i := range enc {
		for j := range enc {
			if i != j && len(enc[i]) > 0 && bytes.HasPrefix(enc[j], enc[i]) {
				// A shorter list IS a prefix of the list that extends it;
				// only flag pairs where neither extends the other.
				if !hasListPrefix(corpus[j], corpus[i]) {
					t.Errorf("encoding of %v is a stray prefix of %v", corpus[i], corpus[j])
				}
			}
		}
	}
}

func hasListPrefix(list, prefix []sqlparse.Value) bool {
	if len(prefix) > len(list) {
		return false
	}
	for i, v := range prefix {
		lv := list[i]
		if v.Kind != lv.Kind || v.Int != lv.Int || v.Str != lv.Str ||
			math.Float64bits(v.Float) != math.Float64bits(lv.Float) {
			return false
		}
	}
	return true
}

// TestKeyInjectivity checks the collision at the level that mattered: two
// distinct statements must never share a deterministic cache key, at any
// exposure.
func TestKeyInjectivity(t *testing.T) {
	for _, exp := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt} {
		c, app := testCodec(t, map[string]template.Exposure{"Q2": exp})
		q := app.Query("Q2")
		a, err := c.SealQuery(q, []sqlparse.Value{sqlparse.IntVal(5)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.SealQuery(q, []sqlparse.Value{sqlparse.FloatVal(5)})
		if err != nil {
			t.Fatal(err)
		}
		if a.Key == b.Key {
			t.Errorf("exposure %v: INT 5 and FLOAT 5 share cache key", exp)
		}
	}
}

// TestStmtEncodingInjective checks the blind lookup-key material: the SQL
// is length-prefixed, so statement text can never bleed into the parameter
// encoding or vice versa.
func TestStmtEncodingInjective(t *testing.T) {
	type stmt struct {
		sql    string
		params []sqlparse.Value
	}
	cases := []stmt{
		{"SELECT 1", nil},
		{"SELECT 1", []sqlparse.Value{sqlparse.StringVal("")}},
		{"SELECT 1\x00", nil},
		{"SELECT 1\x00'x'", nil},
		{"SELECT 1", []sqlparse.Value{sqlparse.StringVal("x")}},
		{"", []sqlparse.Value{sqlparse.StringVal("SELECT 1")}},
		{"SELECT ?", []sqlparse.Value{sqlparse.IntVal(7)}},
		{"SELECT ?", []sqlparse.Value{sqlparse.FloatVal(7)}},
	}
	seen := make(map[string]stmt, len(cases))
	for _, cs := range cases {
		k := string(appendStmt(nil, cs.sql, cs.params))
		if prev, dup := seen[k]; dup {
			t.Errorf("statement encoding collision: %+v vs %+v", prev, cs)
		}
		seen[k] = cs
	}
}

// TestPayloadRoundTrip round-trips payloads through the binary codec and
// rejects non-canonical input.
func TestPayloadRoundTrip(t *testing.T) {
	for _, params := range injectivityCorpus() {
		b := appendPayload(nil, "Q-weird\x00id", params)
		tid, got, err := decodePayload(b)
		if err != nil {
			t.Fatalf("decodePayload(%v): %v", params, err)
		}
		if tid != "Q-weird\x00id" {
			t.Fatalf("template id corrupted: %q", tid)
		}
		if len(got) != len(params) {
			t.Fatalf("param count %d != %d", len(got), len(params))
		}
		for i := range params {
			if math.Float64bits(got[i].Float) != math.Float64bits(params[i].Float) {
				t.Fatalf("param %d float bits changed", i)
			}
			if got[i].Kind != params[i].Kind || got[i].Int != params[i].Int || got[i].Str != params[i].Str {
				t.Fatalf("param %d round trip: %v != %v", i, got[i], params[i])
			}
		}
		// Trailing garbage is not a valid payload.
		if _, _, err := decodePayload(append(bytes.Clone(b), 0)); err == nil {
			t.Fatal("payload with trailing byte accepted")
		}
	}
	// Truncations must error, never panic or mis-decode.
	full := appendPayload(nil, "Q1", []sqlparse.Value{sqlparse.IntVal(1), sqlparse.StringVal("abc")})
	for n := 0; n < len(full); n++ {
		if _, _, err := decodePayload(full[:n]); err == nil {
			t.Fatalf("truncated payload of %d/%d bytes accepted", n, len(full))
		}
	}
}

// TestResultCodecRoundTrip round-trips results of every shape through
// appendResult/decodeResult.
func TestResultCodecRoundTrip(t *testing.T) {
	results := []*engine.Result{
		{},
		{Columns: []string{"qty"}, RowsScanned: 3},
		{
			Columns: []string{"toy_id", "name", "price"},
			Rows: [][]sqlparse.Value{
				{sqlparse.IntVal(1), sqlparse.StringVal("robot\x00toy"), sqlparse.FloatVal(9.99)},
				{sqlparse.IntVal(2), sqlparse.Null(), sqlparse.FloatVal(math.Inf(1))},
				{},
			},
			RowsScanned: 128,
		},
	}
	for _, r := range results {
		b := appendResult(nil, r)
		got, err := decodeResult(b)
		if err != nil {
			t.Fatalf("decodeResult: %v", err)
		}
		if got.Fingerprint(true) != r.Fingerprint(true) || got.RowsScanned != r.RowsScanned {
			t.Fatalf("result round trip changed content: %+v vs %+v", got, r)
		}
		if _, err := decodeResult(append(bytes.Clone(b), 0)); err == nil {
			t.Fatal("result with trailing byte accepted")
		}
		for n := 0; n < len(b); n++ {
			if _, err := decodeResult(b[:n]); err == nil {
				t.Fatalf("truncated result of %d/%d bytes accepted", n, len(b))
			}
		}
	}
}

// referenceDecodeResult is the one-pass result decoder decodeResult
// replaced, kept verbatim as the reference for what is accepted and what it
// decodes to: one slice per row, one string per value.
func referenceDecodeResult(b []byte) (*engine.Result, error) {
	var err error
	r := &engine.Result{}
	ncols, b, err := decodeCount(b)
	if err != nil {
		return nil, errMalformed
	}
	if ncols > 0 {
		r.Columns = make([]string, ncols)
		for i := range r.Columns {
			if r.Columns[i], b, err = decodeString(b); err != nil {
				return nil, errMalformed
			}
		}
	}
	nrows, b, err := decodeCount(b)
	if err != nil {
		return nil, errMalformed
	}
	if nrows > 0 {
		r.Rows = make([][]sqlparse.Value, nrows)
		for i := range r.Rows {
			var width int
			if width, b, err = decodeCount(b); err != nil {
				return nil, errMalformed
			}
			row := make([]sqlparse.Value, width)
			for j := range row {
				if row[j], b, err = decodeValue(b); err != nil {
					return nil, errMalformed
				}
			}
			r.Rows[i] = row
		}
	}
	scanned, rest, err := Uvarint(b)
	if err != nil || len(rest) != 0 || scanned > math.MaxInt32 {
		return nil, errMalformed
	}
	r.RowsScanned = int(scanned)
	return r, nil
}

// decodeResultCorpus seeds the differential tests: every shape the grammar
// allows, and one input for each way of breaking it.
func decodeResultCorpus() [][]byte {
	enc := func(r *engine.Result) []byte { return appendResult(nil, r) }
	v := sqlparse.IntVal
	return [][]byte{
		enc(&engine.Result{}),
		enc(&engine.Result{Columns: []string{"qty"}, RowsScanned: 3}),
		enc(&engine.Result{Rows: [][]sqlparse.Value{{}, {}, {}}}),                                                  // zero-width rows
		enc(&engine.Result{Columns: []string{"a", "b"}, Rows: [][]sqlparse.Value{{v(1)}, {v(2), v(3), v(4)}, {}}}), // ragged
		enc(&engine.Result{Columns: []string{"", "n"}, Rows: [][]sqlparse.Value{
			{sqlparse.Null(), sqlparse.StringVal("")},
			{sqlparse.FloatVal(math.Inf(-1)), sqlparse.StringVal("robot\x00toy")},
			{sqlparse.FloatVal(math.NaN()), sqlparse.StringVal("nan")},
		}, RowsScanned: math.MaxInt32}),
		// a string ending at the last byte of the rows (then the scan count)
		enc(&engine.Result{Columns: []string{"s"}, Rows: [][]sqlparse.Value{{sqlparse.StringVal("tail")}}}),
		{},
		{0x80, 0x00, 0x00, 0x00},             // non-minimal uvarint column count
		{0x00, 0x05, 0x00},                   // row count above the input left
		{0x00, 0x01, 0x02, 0x00, 0x00},       // row width above the input left
		{0x01, 0x09, 'a', 0x00, 0x00},        // column name running off the end
		{0x00, 0x01, 0x01, 0x03, 0x02, 'a'},  // string value running off the end
		{0x00, 0x01, 0x01, 0x07, 0x00},       // unknown value kind
		{0x00, 0x01, 0x01, 0x01, 0x00, 0x00}, // truncated integer
		append(enc(&engine.Result{Columns: []string{"qty"}}), 0), // trailing byte
		{0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x08},               // scan count above MaxInt32
	}
}

// identicalResults is reflect.DeepEqual — a nil slice differs from an empty
// one — except that floats compare by their bits, so a NaN equals itself.
func identicalResults(a, b *engine.Result) bool {
	if !reflect.DeepEqual(a.Columns, b.Columns) || a.RowsScanned != b.RowsScanned ||
		(a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if (ra == nil) != (rb == nil) || len(ra) != len(rb) {
			return false
		}
		for j, va := range ra {
			vb := rb[j]
			if va.Kind != vb.Kind || va.Int != vb.Int || va.Str != vb.Str ||
				math.Float64bits(va.Float) != math.Float64bits(vb.Float) {
				return false
			}
		}
	}
	return true
}

// checkDecodeResult holds decodeResult to the reference on one input: both
// accept or both reject, and an accepted result is deeply equal — nil versus
// empty included — and canonical.
func checkDecodeResult(t *testing.T, b []byte) {
	t.Helper()
	want, wantErr := referenceDecodeResult(b)
	got, err := decodeResult(b)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeResult(%x): err %v, reference: %v", b, err, wantErr)
	}
	if err != nil {
		return
	}
	if !identicalResults(got, want) {
		t.Fatalf("decodeResult(%x) = %#v, reference decoded %#v", b, got, want)
	}
	if !bytes.Equal(appendResult(nil, got), b) {
		t.Fatalf("accepted result is not canonical: %x", b)
	}
}

func TestDecodeResultMatchesReference(t *testing.T) {
	for _, b := range decodeResultCorpus() {
		checkDecodeResult(t, b)
		for n := 0; n < len(b); n++ {
			checkDecodeResult(t, b[:n])
		}
	}
}

// FuzzDecodeResult runs the same comparison on arbitrary input.
func FuzzDecodeResult(f *testing.F) {
	for _, b := range decodeResultCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodeResult(t, b) })
}

// TestDecodeResultDoesNotAliasInput: OpenResult decodes out of a pooled
// buffer, so a decoded result must survive its input being overwritten.
func TestDecodeResultDoesNotAliasInput(t *testing.T) {
	for _, b := range decodeResultCorpus() {
		want, err := referenceDecodeResult(b)
		if err != nil {
			continue
		}
		in := bytes.Clone(b)
		got, err := decodeResult(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			in[i] = 0xA5
		}
		if !identicalResults(got, want) {
			t.Fatalf("scribbling over the input changed the result: %#v, want %#v", got, want)
		}
	}
}

// TestDecodeResultAllocations pins what the two passes buy: the body copy,
// Columns, Rows, one value slab and the Result — whatever the row count.
func TestDecodeResultAllocations(t *testing.T) {
	for _, nrows := range []int{1, 50} {
		b := appendResult(nil, benchResult(nrows))
		if n := testing.AllocsPerRun(100, func() {
			if _, err := decodeResult(b); err != nil {
				t.Fatal(err)
			}
		}); n > 5 {
			t.Errorf("decodeResult of %d rows: %v allocations, want <= 5", nrows, n)
		}
	}
}

// benchResult is an n-row result shaped like the bookstore's listing
// queries: an id, a title, a price.
func benchResult(n int) *engine.Result {
	r := &engine.Result{Columns: []string{"i_id", "i_title", "i_cost"}, RowsScanned: 4 * n}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, []sqlparse.Value{
			sqlparse.IntVal(int64(i)), sqlparse.StringVal("title " + strconv.Itoa(i)), sqlparse.FloatVal(9.99),
		})
	}
	return r
}

// BenchmarkOpenResult is the client's cost of opening an encrypted result:
// decrypt into pooled scratch, then decodeResult.
// openSink keeps BenchmarkOpenResult's results: OpenResult inlines, and a
// result the caller dropped would stay on its stack, one allocation fewer
// than a caller that keeps it pays.
var openSink *engine.Result

func BenchmarkOpenResult(b *testing.B) {
	c, app := testCodec(b, map[string]template.Exposure{"Q2": template.ExpStmt})
	for _, nrows := range []int{1, 10, 50} {
		sr := c.SealResult(app.Query("Q2"), benchResult(nrows))
		b.Run("rows="+strconv.Itoa(nrows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if openSink, err = c.OpenResult(sr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOpenResultNoAliasing is the regression test for the view-exposure
// aliasing bug: SealResult at view exposure carries the cached
// *engine.Result by pointer, and OpenResult used to hand that same pointer
// to the client — a client mutating its "own" result rewrote the DSSP's
// cache entry in place, breaking the engine.Result no-aliasing invariant.
// OpenResult must return a deep copy.
func TestOpenResultNoAliasing(t *testing.T) {
	c, app := testCodec(t, nil) // Q2 defaults to view exposure
	cached := &engine.Result{
		Columns:     []string{"qty", "name"},
		Rows:        [][]sqlparse.Value{{sqlparse.IntVal(25), sqlparse.StringVal("robot")}},
		RowsScanned: 1,
	}
	want := cached.Fingerprint(true)

	sr := c.SealResult(app.Query("Q2"), cached)
	if sr.Result != cached {
		t.Fatal("view exposure should carry the result by pointer (the hazard under test)")
	}
	opened, err := c.OpenResult(sr)
	if err != nil {
		t.Fatal(err)
	}
	if opened == cached {
		t.Fatal("OpenResult returned the cached object itself")
	}
	// Mutate every level of the opened copy.
	opened.Columns[0] = "corrupted"
	opened.Rows[0][0] = sqlparse.IntVal(-999)
	opened.Rows = append(opened.Rows[:0], nil)
	opened.RowsScanned = 0
	if cached.Fingerprint(true) != want || cached.RowsScanned != 1 {
		t.Fatal("mutating the opened result corrupted the cached object")
	}
}

// TestOpenResultNoAliasingConcurrent pins the same invariant under the
// race detector: concurrent clients opening and mutating the same sealed
// view result must never write to shared memory. Before the deep-copy fix
// this was a guaranteed data race.
func TestOpenResultNoAliasingConcurrent(t *testing.T) {
	c, app := testCodec(t, nil)
	cached := &engine.Result{
		Columns: []string{"qty"},
		Rows:    [][]sqlparse.Value{{sqlparse.IntVal(25)}},
	}
	want := cached.Fingerprint(true)
	sr := c.SealResult(app.Query("Q2"), cached)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r, err := c.OpenResult(sr)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				r.Rows[0][0] = sqlparse.IntVal(int64(w*1000 + i))
				r.Columns[0] = fmt.Sprintf("w%d", w)
			}
		}()
	}
	wg.Wait()
	if cached.Fingerprint(true) != want {
		t.Fatal("concurrent clients corrupted the cached result")
	}
}

// TestCodecBufferOwnership stresses the wire package's pooled encode
// buffers: concurrent seals and opens across all exposures, with sealed
// outputs retained and re-verified after heavy pooled reuse. Any sealed
// message or decoded value aliasing pooled scratch shows up as a mismatch
// here or a race under -race.
func TestCodecBufferOwnership(t *testing.T) {
	c, app := testCodec(t, map[string]template.Exposure{
		"Q1": template.ExpBlind,
		"Q2": template.ExpTemplate,
		"Q3": template.ExpStmt,
	})
	queries := []string{"Q1", "Q2", "Q3"}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type held struct {
				key    string
				opaque []byte
				tid    string
				params []sqlparse.Value
			}
			var retained []held
			for i := 0; i < 300; i++ {
				q := app.Query(queries[rng.Intn(len(queries))])
				params := []sqlparse.Value{
					sqlparse.IntVal(int64(rng.Intn(1000))),
					sqlparse.StringVal(strings.Repeat("x", rng.Intn(40)) + "\x00tail"),
				}
				params = params[:1+rng.Intn(2)]
				sq, err := c.SealQuery(q, params)
				if err != nil {
					t.Errorf("worker %d: seal: %v", w, err)
					return
				}
				tm, got, err := c.OpenPayload(sq.Opaque)
				if err != nil || tm.ID != q.ID || len(got) != len(params) {
					t.Errorf("worker %d: payload round trip: %v %v", w, tm, err)
					return
				}
				if i%16 == 0 {
					retained = append(retained, held{
						key:    sq.Key,
						opaque: sq.Opaque,
						tid:    q.ID,
						params: got,
					})
				}
			}
			// Everything handed out must have survived pooled reuse: keys
			// still reproduce, opaques still open to the same statement.
			for _, h := range retained {
				sq, err := c.SealQuery(app.Query(h.tid), h.params)
				if err != nil {
					t.Errorf("worker %d: reseal: %v", w, err)
					return
				}
				if sq.Key != h.key {
					t.Errorf("worker %d: retained key no longer reproducible (pooled buffer escaped)", w)
					return
				}
				tm, got, err := c.OpenPayload(h.opaque)
				if err != nil || tm.ID != h.tid || len(got) != len(h.params) {
					t.Errorf("worker %d: retained opaque no longer opens: %v", w, err)
					return
				}
				for j := range got {
					if !got[j].Equal(h.params[j]) {
						t.Errorf("worker %d: retained params mutated by pooled reuse", w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodePayload fuzzes the payload decoder against arbitrary input:
// it must never panic, and every accepted input must re-encode to exactly
// itself (canonical form).
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendPayload(nil, "Q1", []sqlparse.Value{sqlparse.IntVal(5)}))
	f.Add(appendPayload(nil, "", []sqlparse.Value{sqlparse.StringVal("\x00")}))
	f.Fuzz(func(t *testing.T, b []byte) {
		tid, params, err := decodePayload(b)
		if err != nil {
			return
		}
		if !bytes.Equal(appendPayload(nil, tid, params), b) {
			t.Fatalf("accepted payload is not canonical: %q", b)
		}
	})
}
