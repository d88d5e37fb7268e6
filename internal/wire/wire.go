// Package wire defines the messages that flow between the application's
// trusted side (clients/home organization, which hold the encryption keys)
// and the untrusted DSSP (Figure 2 of the paper): queries, updates, and
// query results, each sealed according to the exposure level of its
// template.
//
// Exposure levels determine what the DSSP can see (§2.3):
//
//	blind:    nothing — the lookup key is a deterministic token of the
//	          whole statement.
//	template: the template identity — parameters are replaced by a
//	          deterministic token.
//	stmt:     template and parameters in the clear; results encrypted.
//	view:     statement and result in the clear (queries only).
//
// Every message also carries an opaque, strongly encrypted payload that
// only the home organization can open; the DSSP forwards it verbatim on
// cache misses and for updates.
//
// # Encoding
//
// Statements, parameters, and results are encoded with a hand-rolled
// deterministic binary format (values.go) instead of gob: sealing sits on
// the per-query hot path, and the encoding doubles as cache-key material,
// so it must be canonical (equal inputs, equal bytes) and injective
// (distinct inputs, distinct bytes). Gob was neither cheap — a fresh
// encoder, type registry walk, and several buffer copies per message —
// nor did the previous NUL-separated parameter rendering distinguish
// every input (a FLOAT and an INT rendering to the same decimal string
// collided, and nothing length-delimited string values). Every value is
// now kind-tagged and length-delimited, which makes the whole encoding
// injective by construction.
//
// The sealed messages themselves have one byte-stream form, built on the
// same value encoding (sealed.go): package httpapi puts it on every HTTP
// hop, and the migration stream (bucket.go) carries cache entries in it.
//
// All encode scratch comes from a package-level buffer pool; sealed
// outputs (Opaque, Cipher, Key) are freshly allocated or immutable
// strings, owned by the caller, and never alias pooled memory — but for a
// statement sealed with LendQuery or LendUpdate, whose payload (and a
// query's key) lie in the caller's Scratch and are lent. What is read off
// a byte stream is owned when decoded and lent when read in place
// (sealed.go).
package wire

import (
	"fmt"
	"strings"

	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// Domain labels for deterministic encryption, separating statement,
// parameter, and result spaces.
const (
	domStmt   = "stmt"
	domParams = "params"
	domResult = "result"
	domOpaque = "opaque"
)

// SealedQuery is a query as the DSSP sees it.
type SealedQuery struct {
	Exposure template.Exposure

	// lent marks a query whose key, parameters, encoded or not, and
	// payload lie in memory its sender reuses once the call it was lent
	// for returns: a client's scratch (Codec.LendQuery) or a frame
	// (ReadSealedQuery). KeepIn copies them for whoever keeps the query
	// past the call. (It sits beside Exposure, in the word Exposure leaves
	// free, so a cache entry pays no byte for it.)
	lent bool

	// TraceID identifies this request across client, node, and home
	// server. It is observability metadata, not part of the cache key,
	// and reveals nothing about the statement.
	TraceID obs.TraceID

	// ParentSpan is the span ID of the upstream hop's in-progress stage:
	// each process records its spans under it and overwrites it with its
	// own span ID before forwarding, so the fleet's spans stitch into one
	// tree. Like TraceID, it is observability metadata only.
	ParentSpan obs.SpanID

	// TemplateID is exposed at template exposure and above.
	TemplateID string

	// Group is the statement's table group (see schema.DeriveGroups): the
	// routing hint the partitioned home tier needs to steer this query to
	// the partition owning its tables. It is stamped at every exposure
	// level — the group assignment is derived from the schema and template
	// set, which the DSSP already holds, but at blind exposure the hint
	// does narrow the statement to one table group's templates; that is
	// the (documented) price of partition routing, exactly as the sealed
	// key's determinism is the price of caching.
	Group int

	// Params are exposed at stmt exposure and above.
	Params []sqlparse.Value

	// Key is the deterministic cache lookup key (§2.3 footnote 3).
	Key string

	// Opaque is the encrypted statement payload for the home server.
	Opaque []byte

	// params is Params still encoded, as a query read in place carries
	// them until its keeper copies them (KeepIn); "" once decoded, and for
	// a query sealed or decoded whole.
	params string
}

// SealedUpdate is an update as the DSSP sees it. Updates have no view
// level.
type SealedUpdate struct {
	Exposure   template.Exposure
	TraceID    obs.TraceID // observability metadata, as in SealedQuery
	ParentSpan obs.SpanID  // observability metadata, as in SealedQuery
	TemplateID string
	Group      int // table-group routing hint, as in SealedQuery
	Params     []sqlparse.Value
	Opaque     []byte

	// params is Params still encoded, as an update read in place carries
	// them until its keeper copies them (KeepIn); "" once decoded, and for
	// an update sealed or decoded whole.
	params string

	// lent marks an update whose parameters, encoded or not, and payload
	// lie in memory its sender reuses once the call it was lent for
	// returns: a client's scratch (Codec.LendUpdate) or a frame
	// (ReadSealedUpdate). KeepIn copies them for the one keeper of an
	// update past its call, the pipeline's update call.
	lent bool
}

// Head is what a router reads of a sealed statement: the fields it routes
// and traces by. The parameters and the payload it only forwards.
type Head struct {
	TraceID    obs.TraceID
	ParentSpan obs.SpanID
	TemplateID string
	Key        string // a query's lookup key; "" for an update
	Opaque     []byte // the payload: a blind update is routed by it
}

// Head returns sq's routing fields. The key is lent when sq is: a keeper
// of the key alone copies it (shard.BlindCache).
func (sq *SealedQuery) Head() Head {
	return Head{TraceID: sq.TraceID, ParentSpan: sq.ParentSpan, TemplateID: sq.TemplateID, Key: sq.Key, Opaque: sq.Opaque}
}

// Head returns su's routing fields.
func (su *SealedUpdate) Head() Head {
	return Head{TraceID: su.TraceID, ParentSpan: su.ParentSpan, TemplateID: su.TemplateID, Opaque: su.Opaque}
}

// SealedResult is a query result as cached by the DSSP: plaintext at view
// exposure, ciphertext otherwise.
type SealedResult struct {
	Result *engine.Result // a view-exposure query's plaintext, unless it is lent as its encoding (view)
	Cipher []byte

	// view is a view-exposure result lent as its encoding, in place of
	// Result: ReadSealedResult leaves it in the bytes it read.
	view []byte
}

// Codec seals and opens messages. It lives on the trusted side: clients
// seal queries and updates; the home server opens them and seals results.
type Codec struct {
	kr   *encrypt.Keyring
	exps map[string]template.Exposure

	// groups assigns each template its table group (via its relations) —
	// the partition-routing hint stamped into every sealed message.
	groups map[string]int

	// columns holds each query template's result column names once, as
	// its compiled plan names them: every result of the template opened
	// here shares the slice (OpenResultInto). Read it, never write it.
	columns map[string][]string

	// templates resolves a payload's template ID to the application's
	// template (ReadPayload): a lookup by the ID's bytes, with no copy.
	templates map[string]*template.Template
}

// NewCodec builds a codec for an application under an exposure assignment
// (template ID -> exposure level). Templates missing from the assignment
// default to full exposure.
func NewCodec(app *template.App, kr *encrypt.Keyring, exps map[string]template.Exposure) *Codec {
	g := template.AppGroups(app)
	groups := make(map[string]int, len(app.Queries)+len(app.Updates))
	templates := make(map[string]*template.Template, len(app.Queries)+len(app.Updates))
	for _, ts := range [][]*template.Template{app.Queries, app.Updates} {
		for _, t := range ts {
			groups[t.ID] = template.GroupOf(g, t)
			templates[t.ID] = t
		}
	}
	return &Codec{kr: kr, exps: exps, groups: groups, columns: Columns(app), templates: templates}
}

// Columns returns the result column names of each query template of app,
// as its compiled plan names them, by template ID: the names a codec
// shares among the results it opens (OpenResultInto) and a node's cache
// among the entries it keeps (KeepEntry). Read the slices, never write
// them.
func Columns(app *template.App) map[string][]string {
	columns := make(map[string][]string, len(app.Queries))
	for _, t := range app.Queries {
		if sel, ok := t.Stmt.(*sqlparse.SelectStmt); ok {
			if p, err := engine.Compile(app.Schema, sel); err == nil {
				columns[t.ID] = p.Columns()
			}
		}
	}
	return columns
}

// GroupOf reports the table group stamped into sealed instances of a
// template.
func (c *Codec) GroupOf(t *template.Template) int { return c.groups[t.ID] }

// ExposureOf returns the configured exposure of a template.
func (c *Codec) ExposureOf(t *template.Template) template.Exposure {
	if e, ok := c.exps[t.ID]; ok {
		return e
	}
	return template.MaxExposure(t.Kind)
}

// SealQuery prepares a query instance for the DSSP. The query is the
// caller's to keep, and it may outlive every call it is passed to: the
// key and the payload are its own, and Params is params.
func (c *Codec) SealQuery(t *template.Template, params []sqlparse.Value) (SealedQuery, error) {
	eb := getBuf()
	sq, err := c.sealQuery(t, params, nil, &eb.b)
	sq.Key = strings.Clone(sq.Key)
	putBuf(eb)
	return sq, err
}

// Scratch is the memory a lent statement is sealed into (Codec.LendQuery,
// Codec.LendUpdate): its payload and, for a query, its key. Its holder
// seals the next statement into it only once the call the last one was
// lent for has returned. The zero value is ready to use.
type Scratch struct{ opaque, key []byte }

// LendQuery is SealQuery into s, for a caller that passes the query to one
// call and is done with it when that returns — the trusted client's
// Front.Query: the payload and the key lie in s and Params is params, all
// lent for the call (pipeline.Front). Whatever keeps the query past the
// call copies what it keeps (SealedQuery.KeepIn). So a query sealed into
// warm scratch allocates nothing.
func (c *Codec) LendQuery(t *template.Template, params []sqlparse.Value, s *Scratch) (SealedQuery, error) {
	sq, err := c.sealQuery(t, params, s.opaque[:0], &s.key)
	if err != nil {
		return SealedQuery{}, err
	}
	s.opaque, sq.lent = sq.Opaque, true
	return sq, nil
}

// sealQuery seals a query instance: the payload is appended to opaque, and
// *key first stages the payload's plaintext, then holds the key, which
// sq.Key lends.
func (c *Codec) sealQuery(t *template.Template, params []sqlparse.Value, opaque []byte, key *[]byte) (SealedQuery, error) {
	if t.Kind != template.KQuery {
		return SealedQuery{}, fmt.Errorf("wire: %s is not a query template", t.ID)
	}
	exp := c.ExposureOf(t)
	b := appendPayload((*key)[:0], t.ID, params)
	sq := SealedQuery{Exposure: exp, TraceID: obs.NewTraceID(), Group: c.groups[t.ID], Opaque: c.kr.SealAppend(opaque, domOpaque, b)}
	switch exp {
	case template.ExpBlind:
		// The key is the token of the whole statement (length-prefixed
		// SQL, then the parameter encoding), appended over the statement.
		b = appendStmt(b[:0], t.SQL, params)
		b = c.kr.TokenAppend(b[:0], domStmt, b)
	case template.ExpTemplate:
		// The key is the template ID, a NUL and the parameters' token: the
		// token is appended over the parameters it is made of.
		sq.TemplateID = t.ID
		b = append(append(b[:0], t.ID...), 0)
		n := len(b)
		b = appendParams(b, params)
		b = c.kr.TokenAppend(b[:n], domParams, b[n:])
	default: // stmt or view
		sq.TemplateID = t.ID
		sq.Params = params
		b = append(append(b[:0], t.ID...), 0)
		b = appendParams(b, params)
	}
	*key = b
	sq.Key = lend(b)
	return sq, nil
}

// SealUpdate prepares an update instance for the DSSP. The update is the
// caller's to keep, as SealQuery's query is: the payload is its own, and
// Params is params.
func (c *Codec) SealUpdate(t *template.Template, params []sqlparse.Value) (SealedUpdate, error) {
	eb := getBuf()
	su, err := c.sealUpdate(t, params, nil, &eb.b)
	putBuf(eb)
	return su, err
}

// LendUpdate is SealUpdate into s, as LendQuery is SealQuery: the payload
// lies in s and Params is params, both lent for the one call the update
// is passed to (pipeline.Front), and the one keeper of an update past its
// call, the pipeline's update call, copies it (SealedUpdate.KeepIn). So
// an update sealed into warm scratch allocates nothing.
func (c *Codec) LendUpdate(t *template.Template, params []sqlparse.Value, s *Scratch) (SealedUpdate, error) {
	su, err := c.sealUpdate(t, params, s.opaque[:0], &s.key)
	if err != nil {
		return SealedUpdate{}, err
	}
	s.opaque, su.lent = su.Opaque, true
	return su, nil
}

// sealUpdate seals an update instance: the payload is appended to opaque,
// and *plain stages the payload's plaintext.
func (c *Codec) sealUpdate(t *template.Template, params []sqlparse.Value, opaque []byte, plain *[]byte) (SealedUpdate, error) {
	if !t.Kind.IsUpdate() {
		return SealedUpdate{}, fmt.Errorf("wire: %s is not an update template", t.ID)
	}
	exp := min(c.ExposureOf(t), template.ExpStmt)
	*plain = appendPayload((*plain)[:0], t.ID, params)
	su := SealedUpdate{
		Exposure: exp,
		TraceID:  obs.NewTraceID(),
		Group:    c.groups[t.ID],
		Opaque:   c.kr.SealAppend(opaque, domOpaque, *plain),
	}
	if exp >= template.ExpTemplate {
		su.TemplateID = t.ID
	}
	if exp >= template.ExpStmt {
		su.Params = params
	}
	return su, nil
}

// OpenPayload decrypts an opaque statement payload and resolves its
// template: ReadPayload into pooled scratch, followed by a copy of the
// strings, so the parameters are the caller's own and never alias the
// scratch.
func (c *Codec) OpenPayload(opaque []byte) (*template.Template, []sqlparse.Value, error) {
	eb := getBuf()
	defer putBuf(eb)
	var params []sqlparse.Value
	t, err := c.ReadPayload(opaque, &eb.b, &params)
	if err != nil {
		return nil, nil, err
	}
	for i := range params {
		params[i].Str = strings.Clone(params[i].Str)
	}
	return t, params, nil
}

// ReadPayload is OpenPayload in place, for the home server, which runs the
// statement and is done with it when the run returns: the payload is
// decrypted into *plain and its parameters read into *params, both reused
// from the last statement read into them. The string parameters, a
// query's and an update's, are lent from *plain, valid until it is
// reused: the home copies only the values an update stores (an INSERT's,
// a SET's), which storage keeps. The template is the application's own,
// found with no copy of its ID. So a statement read into warm scratch
// allocates nothing.
func (c *Codec) ReadPayload(opaque []byte, plain *[]byte, params *[]sqlparse.Value) (*template.Template, error) {
	t, n, b, err := c.openHead(opaque, plain)
	if err != nil {
		return nil, err
	}
	if *params, err = readParams((*params)[:0], n, b); err != nil {
		return nil, err
	}
	return t, nil
}

// openHead decrypts opaque into *plain and reads the payload's head: the
// template its ID names, and the parameter count and encoding that follow.
func (c *Codec) openHead(opaque []byte, plain *[]byte) (*template.Template, int, []byte, error) {
	b, err := c.kr.OpenAppend((*plain)[:0], domOpaque, opaque)
	if err != nil {
		return nil, 0, nil, err
	}
	*plain = b
	tid, n, params, err := splitPayload(b)
	if err != nil {
		return nil, 0, nil, err
	}
	t := c.templates[string(tid)]
	if t == nil {
		return nil, 0, nil, fmt.Errorf("wire: unknown template %q in payload", tid)
	}
	return t, n, params, nil
}

// SealResult seals a query result according to the query's exposure: view
// exposure keeps it in the clear, anything lower encrypts it.
func (c *Codec) SealResult(t *template.Template, res *engine.Result) SealedResult {
	if c.ExposureOf(t) == template.ExpView {
		return SealedResult{Result: res}
	}
	eb := getBuf()
	eb.b = appendResult(eb.b[:0], res)
	sr := SealedResult{Cipher: c.kr.Seal(domResult, eb.b)}
	putBuf(eb)
	return sr
}

// LendResult is SealResult into memory the caller reuses, for a home that
// hands its answer on before it runs the next statement: a view-exposure
// result is res itself, and a cipher is sealed into *buf, reused from the
// last result sealed into it. Both are lent — valid until the caller
// reuses res or *buf — and whatever keeps the result past that copies it
// (Own, or a node's cache entry). So a result sealed into warm memory
// allocates nothing.
func (c *Codec) LendResult(t *template.Template, res *engine.Result, buf *[]byte) SealedResult {
	if c.ExposureOf(t) == template.ExpView {
		return SealedResult{Result: res}
	}
	eb := getBuf()
	eb.b = appendResult(eb.b[:0], res)
	*buf = c.kr.SealAppend((*buf)[:0], domResult, eb.b)
	putBuf(eb)
	return SealedResult{Cipher: *buf}
}

// OpenResult recovers the plaintext result from a sealed result
// (client side). The returned result is always the caller's own copy:
// for encrypted results it is freshly decoded, and for view-exposure
// results — where the sealed form carries the DSSP's cached object by
// pointer — it is a deep copy, so a caller mutating its result can never
// corrupt the cache (the engine.Result no-aliasing invariant). Its column
// names are its own too: OpenResultInto shares a template's. (Its form
// keeps it within the inliner's budget, so a caller that drops the result
// does not allocate it.)
func (c *Codec) OpenResult(sr SealedResult) (res *engine.Result, err error) {
	res = new(engine.Result)
	if err = c.openResult(nil, sr, res, nil); err != nil {
		res = nil
	}
	return
}

// OpenResultInto is OpenResult of a result of query template t into the
// memory box supplies once the result is measured: room for its values
// and, but for a result in the clear that arrived by pointer, whose
// strings are immutable already, the bytes of its strings. So a caller
// can hold the result, its values and its strings in one allocation with
// what it returns the result in. A lent view result (ReadSealedResult) is
// decoded straight into the box, with no copy between. When the result's
// column names are t's, its Columns is the codec's one slice of them,
// shared by every result of t opened here: read it, never write it
// (engine.Result). Other names, or a nil t, get a copy. box is asked for
// nothing when the result does not open.
func (c *Codec) OpenResultInto(t *template.Template, sr SealedResult, box ResultBox) error {
	return c.openResult(t, sr, nil, box)
}

// openResult opens sr into box, or, when box is nil, into res.
func (c *Codec) openResult(t *template.Template, sr SealedResult, res *engine.Result, box ResultBox) error {
	var columns []string
	if t != nil {
		columns = c.columns[t.ID]
	}
	switch {
	case sr.view != nil:
		return decodeResultInto(sr.view, res, columns, box)
	case sr.Result != nil:
		res, vals, _ := boxFor(box, res, len(sr.Result.Vals), 0)
		sr.Result.CloneInto(res, columns, vals)
		return nil
	}
	eb := getBuf()
	defer putBuf(eb)
	b, err := c.kr.OpenAppend(eb.b[:0], domResult, sr.Cipher)
	if err != nil {
		return err
	}
	eb.b = b[:0]
	if err := decodeResultInto(b, res, columns, box); err != nil {
		return fmt.Errorf("wire: decode result: %w", err)
	}
	return nil
}

// Size estimates the wire size of a sealed result in bytes, for the
// simulator's bandwidth model; no result is 0.
func (sr SealedResult) Size() int {
	switch {
	case sr.Cipher != nil:
		return len(sr.Cipher)
	case sr.view != nil:
		return sr.Own().Size()
	case sr.Result == nil:
		return 0
	}
	n := 64
	for _, c := range sr.Result.Columns {
		n += len(c) + 4
	}
	for _, v := range sr.Result.Vals {
		n += 10
		if v.Kind == sqlparse.KindString {
			n += len(v.Str)
		}
	}
	return n
}
