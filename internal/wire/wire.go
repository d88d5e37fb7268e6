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
// strings, owned by the caller, and never alias pooled memory.
package wire

import (
	"fmt"

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

// Head returns sq's routing fields.
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
	Result *engine.Result // non-nil iff the query's exposure is view
	Cipher []byte
}

// Codec seals and opens messages. It lives on the trusted side: clients
// seal queries and updates; the home server opens them and seals results.
type Codec struct {
	app  *template.App
	kr   *encrypt.Keyring
	exps map[string]template.Exposure

	// groups assigns each template its table group (via its relations) —
	// the partition-routing hint stamped into every sealed message.
	groups map[string]int
}

// NewCodec builds a codec for an application under an exposure assignment
// (template ID -> exposure level). Templates missing from the assignment
// default to full exposure.
func NewCodec(app *template.App, kr *encrypt.Keyring, exps map[string]template.Exposure) *Codec {
	g := template.AppGroups(app)
	groups := make(map[string]int, len(app.Queries)+len(app.Updates))
	for _, t := range app.Queries {
		groups[t.ID] = template.GroupOf(g, t)
	}
	for _, t := range app.Updates {
		groups[t.ID] = template.GroupOf(g, t)
	}
	return &Codec{app: app, kr: kr, exps: exps, groups: groups}
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

// SealQuery prepares a query instance for the DSSP.
func (c *Codec) SealQuery(t *template.Template, params []sqlparse.Value) (SealedQuery, error) {
	if t.Kind != template.KQuery {
		return SealedQuery{}, fmt.Errorf("wire: %s is not a query template", t.ID)
	}
	exp := c.ExposureOf(t)
	eb := getBuf()
	eb.b = appendPayload(eb.b[:0], t.ID, params)
	sq := SealedQuery{Exposure: exp, TraceID: obs.NewTraceID(), Group: c.groups[t.ID], Opaque: c.kr.Seal(domOpaque, eb.b)}
	switch exp {
	case template.ExpBlind:
		// The encrypted statement is the lookup key: the whole statement
		// (length-prefixed SQL, then the parameter encoding) in one pass
		// through the pooled buffer.
		eb.b = appendStmt(eb.b[:0], t.SQL, params)
		sq.Key = c.kr.Token(domStmt, eb.b)
	case template.ExpTemplate:
		// The key is the template ID, a NUL and the parameters' token: the
		// token is appended over the parameters it is made of, and the key
		// is one string.
		sq.TemplateID = t.ID
		eb.b = append(append(eb.b[:0], t.ID...), 0)
		n := len(eb.b)
		eb.b = appendParams(eb.b, params)
		eb.b = c.kr.TokenAppend(eb.b[:n], domParams, eb.b[n:])
		sq.Key = string(eb.b)
	default: // stmt or view
		sq.TemplateID = t.ID
		sq.Params = params
		eb.b = append(append(eb.b[:0], t.ID...), 0)
		eb.b = appendParams(eb.b, params)
		sq.Key = string(eb.b)
	}
	putBuf(eb)
	return sq, nil
}

// SealUpdate prepares an update instance for the DSSP.
func (c *Codec) SealUpdate(t *template.Template, params []sqlparse.Value) (SealedUpdate, error) {
	if !t.Kind.IsUpdate() {
		return SealedUpdate{}, fmt.Errorf("wire: %s is not an update template", t.ID)
	}
	exp := c.ExposureOf(t)
	if exp > template.ExpStmt {
		exp = template.ExpStmt
	}
	eb := getBuf()
	eb.b = appendPayload(eb.b[:0], t.ID, params)
	su := SealedUpdate{
		Exposure: exp,
		TraceID:  obs.NewTraceID(),
		Group:    c.groups[t.ID],
		Opaque:   c.kr.Seal(domOpaque, eb.b),
	}
	putBuf(eb)
	if exp >= template.ExpTemplate {
		su.TemplateID = t.ID
	}
	if exp >= template.ExpStmt {
		su.Params = params
	}
	return su, nil
}

// OpenPayload decrypts an opaque statement payload (home-server side) and
// resolves its template. The returned parameters are freshly allocated;
// they never alias the pooled decrypt scratch.
func (c *Codec) OpenPayload(opaque []byte) (*template.Template, []sqlparse.Value, error) {
	eb := getBuf()
	defer putBuf(eb)
	b, err := c.kr.OpenAppend(eb.b[:0], domOpaque, opaque)
	if err != nil {
		return nil, nil, err
	}
	eb.b = b[:0]
	tid, params, err := decodePayload(b)
	if err != nil {
		return nil, nil, err
	}
	t := c.app.Query(tid)
	if t == nil {
		t = c.app.Update(tid)
	}
	if t == nil {
		return nil, nil, fmt.Errorf("wire: unknown template %q in payload", tid)
	}
	return t, params, nil
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

// OpenResult recovers the plaintext result from a sealed result
// (client side). The returned result is always the caller's own copy:
// for encrypted results it is freshly decoded, and for view-exposure
// results — where the sealed form carries the DSSP's cached object by
// pointer — it is a deep copy, so a caller mutating its result can never
// corrupt the cache (the engine.Result no-aliasing invariant).
func (c *Codec) OpenResult(sr SealedResult) (*engine.Result, error) {
	res := new(engine.Result)
	if err := c.OpenResultInto(sr, res); err != nil {
		return nil, err
	}
	return res, nil
}

// OpenResultInto is OpenResult into a result the caller allocated, so a
// caller can hold the result in the same allocation as what it returns
// the result in. res is overwritten only when the result opens.
func (c *Codec) OpenResultInto(sr SealedResult, res *engine.Result) error {
	if sr.Result != nil {
		sr.Result.CloneInto(res)
		return nil
	}
	eb := getBuf()
	defer putBuf(eb)
	b, err := c.kr.OpenAppend(eb.b[:0], domResult, sr.Cipher)
	if err != nil {
		return err
	}
	eb.b = b[:0]
	if err := decodeResultInto(b, res); err != nil {
		return fmt.Errorf("wire: decode result: %w", err)
	}
	return nil
}

// Size estimates the wire size of a sealed result in bytes, for the
// simulator's bandwidth model.
func (sr SealedResult) Size() int {
	if sr.Cipher != nil {
		return len(sr.Cipher)
	}
	n := 64
	for _, c := range sr.Result.Columns {
		n += len(c) + 4
	}
	for _, row := range sr.Result.Rows {
		for _, v := range row {
			n += 10
			if v.Kind == sqlparse.KindString {
				n += len(v.Str)
			}
		}
	}
	return n
}
