package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"dssp/internal/dssp"
	"dssp/internal/pipeline"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// spanKind names one timed call at a layer boundary. The string is
// "<layer>.<call>", the layer being the product module the call enters.
type spanKind uint8

const (
	spQuery  spanKind = iota // root: one client query, seal → reply opened
	spUpdate                 // root: one client update, seal → invalidation applied
	spSealQuery
	spSealUpdate
	spOpenResult
	spPipeQuery
	spPipeUpdate
	spCacheLookup
	spCacheStore
	spCacheOnUpdate
	spHomeExecQuery
	spHomeExecUpdate
	spClientRouterRTT
	spRouterHandler
	spRouterNodeRTT
	spNodeHandler
	spNodeHomeRTT
	spHomeHandler
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.query", "client.update",
	"wire.seal_query", "wire.seal_update", "wire.open_result",
	"pipeline.query", "pipeline.update",
	"cache.lookup", "cache.store", "cache.on_update",
	"homeserver.exec_query", "homeserver.exec_update",
	"httpapi.client_router_rtt", "httpapi.router_handler", "httpapi.router_node_rtt",
	"httpapi.node_handler", "httpapi.node_home_rtt", "httpapi.home_handler",
}

// spanSampleEvery is the stride of the deterministic op sample whose full
// spans are written to -spans.
const spanSampleEvery = 100

// span is one completed call: name, start, end, parent, and the op it
// belongs to. Times are nanoseconds since the tracer's epoch.
type span struct {
	Kind   spanKind `json:"name"`
	Op     int      `json:"op"`
	Parent int      `json:"parent"` // index among the op's spans, -1 for the root
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// MarshalText writes a span kind by name in the -spans file.
func (k spanKind) MarshalText() ([]byte, error) { return []byte(spanNames[k]), nil }

// spanAgg is the in-memory aggregate of one span kind.
type spanAgg struct {
	calls       int64
	total, self time.Duration
}

func (a spanAgg) meanUs() float64 { return perCall(a.total, a.calls) }
func (a spanAgg) selfUs() float64 { return perCall(a.self, a.calls) }

func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// tracer records the spans of one closed-loop client's ops. With one
// client, exactly one op is in flight, so the open spans — even those
// begun on server goroutines of the in-process fleet — form one causal
// chain: a span's parent is the innermost span open when it begins.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	op      int
	spans   []span // the current op's spans, in begin order
	open    []int  // indexes of spans begun and not yet ended
	agg     [numSpanKinds]spanAgg
	gaps    map[string]time.Duration // root time under no child, by position
	sampled []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), gaps: make(map[string]time.Duration)}
}

// spanRef identifies a begun span: its op and its index among the op's
// spans.
type spanRef struct{ op, i int }

func (t *tracer) begin(k spanKind) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Kind: k, Op: t.op, Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Start = time.Since(t.epoch).Nanoseconds()
	return spanRef{t.op, i}
}

func (t *tracer) end(r spanRef) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	// A server handler returns after its response is flushed, which can
	// be just after its caller — or the whole op — has finished: such a
	// span was already closed at the op's end by finishOp.
	if r.op != t.op {
		return
	}
	t.spans[r.i].End = now
	for n := len(t.open); n > 0 && t.spans[t.open[n-1]].End != 0; n = len(t.open) {
		t.open = t.open[:n-1]
	}
}

// reset drops everything recorded so far (the warm-up script's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op, t.spans, t.open, t.sampled = 0, t.spans[:0], t.open[:0], nil
	t.agg = [numSpanKinds]spanAgg{}
	t.gaps = make(map[string]time.Duration)
}

// finishOp folds the finished op's spans into the aggregates: a span's
// self time is its duration minus the part of it its children cover.
func (t *tracer) finishOp() {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for i := range t.spans {
		if t.spans[i].End == 0 {
			t.spans[i].End = t.spans[0].End
		}
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if d := min(s.End, p.End) - max(s.Start, p.Start); d > 0 {
			covered[s.Parent] += d
		}
	}
	for i, s := range t.spans {
		a := &t.agg[s.Kind]
		a.calls++
		a.total += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End - s.Start - covered[i])
	}
	// Name the root's uncovered intervals by the children around them.
	at, prev := t.spans[0].Start, "start"
	for _, s := range t.spans[1:] {
		if s.Parent != 0 {
			continue
		}
		if s.Start > at {
			t.gaps[prev+" → "+spanNames[s.Kind]] += time.Duration(s.Start - at)
		}
		at, prev = s.End, spanNames[s.Kind]
	}
	if end := t.spans[0].End; end > at {
		t.gaps[prev+" → end"] += time.Duration(end - at)
	}
	if t.op%spanSampleEvery == 0 {
		t.sampled = append(t.sampled, t.spans...)
	}
	t.spans, t.open = t.spans[:0], t.open[:0]
	t.op++
}

// widestGap names the root interval that holds the most uncovered time.
func (t *tracer) widestGap() (string, time.Duration) {
	var name string
	var worst time.Duration
	for k, d := range t.gaps {
		if d > worst || (d == worst && k < name) {
			name, worst = k, d
		}
	}
	return name, worst
}

// writeSpans writes the sampled ops' spans, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.sampled {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedEmbedClient is dssp.Client's statement sequence re-stated with a
// span per call: Params → Codec.SealQuery → Pipeline.QuerySync →
// Codec.OpenResult (and the update analogue). The pipeline it drives is
// built over tracedCache and tracedTransport.
type tracedEmbedClient struct {
	codec *wire.Codec
	pipe  *pipeline.Pipeline
	tr    *tracer
}

func (c *tracedEmbedClient) Query(t *template.Template, args []interface{}) (*dssp.QueryResult, error) {
	root := c.tr.begin(spQuery)
	defer c.tr.end(root)
	vals, err := dssp.Params(args...)
	if err != nil {
		return nil, err
	}
	sp := c.tr.begin(spSealQuery)
	sq, err := c.codec.SealQuery(t, vals)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = c.tr.begin(spPipeQuery)
	reply, err := c.pipe.QuerySync(context.Background(), sq)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = c.tr.begin(spOpenResult)
	res, err := c.codec.OpenResult(reply.Result)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &dssp.QueryResult{Result: res, Outcome: dssp.QueryOutcome{Hit: reply.Hit, Rows: res.Len(), Scanned: reply.Scanned}}, nil
}

func (c *tracedEmbedClient) Update(t *template.Template, args []interface{}) error {
	root := c.tr.begin(spUpdate)
	defer c.tr.end(root)
	vals, err := dssp.Params(args...)
	if err != nil {
		return err
	}
	sp := c.tr.begin(spSealUpdate)
	su, err := c.codec.SealUpdate(t, vals)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin(spPipeUpdate)
	_, err = c.pipe.UpdateSync(context.Background(), su)
	c.tr.end(sp)
	return err
}

// tracedClient roots a span around a product client the bench cannot
// re-state (httpapi.Client's round trip is unexported).
type tracedClient struct {
	inner client
	tr    *tracer
}

func (c tracedClient) Query(t *template.Template, args []interface{}) (*dssp.QueryResult, error) {
	root := c.tr.begin(spQuery)
	defer c.tr.end(root)
	return c.inner.Query(t, args)
}

func (c tracedClient) Update(t *template.Template, args []interface{}) error {
	root := c.tr.begin(spUpdate)
	defer c.tr.end(root)
	return c.inner.Update(t, args)
}

// tracedCache times the node surface the pipeline drives.
type tracedCache struct {
	inner pipeline.Cache
	tr    *tracer
}

func (c tracedCache) HandleQuery(q wire.SealedQuery) (wire.SealedResult, bool) {
	sp := c.tr.begin(spCacheLookup)
	defer c.tr.end(sp)
	return c.inner.HandleQuery(q)
}

func (c tracedCache) StoreResult(q wire.SealedQuery, r wire.SealedResult, empty bool) {
	sp := c.tr.begin(spCacheStore)
	defer c.tr.end(sp)
	c.inner.StoreResult(q, r, empty)
}

func (c tracedCache) OnUpdateCompleted(u wire.SealedUpdate) int {
	sp := c.tr.begin(spCacheOnUpdate)
	defer c.tr.end(sp)
	return c.inner.OnUpdateCompleted(u)
}

func (c tracedCache) OnUpdatesCompleted(us []wire.SealedUpdate) []int {
	sp := c.tr.begin(spCacheOnUpdate)
	defer c.tr.end(sp)
	return c.inner.OnUpdatesCompleted(us)
}

// tracedTransport brackets the home server's execution of forwarded
// statements. The span ends before the pipeline's continuation runs, so
// cache.store and cache.on_update are its siblings, not its children.
type tracedTransport struct {
	inner pipeline.Transport
	tr    *tracer
}

func (t tracedTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	sp := t.tr.begin(spHomeExecQuery)
	t.inner.ExecQuery(ctx, sq, func(r pipeline.ExecQueryResult, err error) {
		t.tr.end(sp)
		done(r, err)
	})
}

func (t tracedTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	sp := t.tr.begin(spHomeExecUpdate)
	t.inner.ExecUpdate(ctx, su, func(r pipeline.ExecUpdateResult, err error) {
		t.tr.end(sp)
		done(r, err)
	})
}

// tracedHandler times one fleet server's handler.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	sp    spanKind
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.tr.begin(h.sp)
	defer h.tr.end(sp)
	h.inner.ServeHTTP(w, r)
}

// tracedRoundTripper times one hop's round trip, from the request
// leaving its sender to the response body being closed, and counts the
// bytes both ways.
type tracedRoundTripper struct {
	inner http.RoundTripper
	tr    *tracer
	sp    spanKind

	mu                 sync.Mutex
	calls              int64
	reqBytes, resBytes int64
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := rt.tr.begin(rt.sp)
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		rt.tr.end(sp)
		return nil, err
	}
	rt.mu.Lock()
	rt.calls++
	rt.reqBytes += req.ContentLength
	rt.mu.Unlock()
	resp.Body = &tracedBody{ReadCloser: resp.Body, rt: rt, sp: sp}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	rt     *tracedRoundTripper
	sp     spanRef
	n      int64
	closed bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.closed {
		return err
	}
	b.closed = true
	b.rt.tr.end(b.sp)
	b.rt.mu.Lock()
	b.rt.resBytes += b.n
	b.rt.mu.Unlock()
	return err
}
