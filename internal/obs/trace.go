package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace IDs are cheap process-unique strings: a random per-process prefix
// plus a sequence number. They ride inside wire sealed messages, so one
// query or update can be followed across client, router, node, and home
// server. They never become metric labels
// (that would be unbounded cardinality); they key the tracer's span log.
var (
	traceSeq    atomic.Int64
	spanSeq     atomic.Int64
	tracePrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "trace"
		}
		return hex.EncodeToString(b[:])
	}()
)

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() string { return formatID("-", traceSeq.Add(1)) }

// formatSpanID renders a span's sequence number as its process-unique ID.
// Span IDs link a request's stages into a tree: each hop records its spans
// with the upstream span as parent, carried in the sealed message's
// ParentSpan field.
//
// A span is numbered when it starts and named only when someone reads the
// name: most spans are recorded, aggregated into their stage's histogram
// and overwritten in the store without their ID ever being looked at, so
// the SpanStore keeps the number, and the text is made by Span.ID (for the
// one span per hop whose ID travels on as ParentSpan) and by the readers —
// SpanStore.Trace and All — whose output, JSON included, is what it was
// when every span carried its string.
func formatSpanID(seq int64) string { return formatID("-s", seq) }

// formatID renders <prefix><sep><seq, zero-padded to six digits> through a
// stack buffer, so the only allocation is the string itself.
func formatID(sep string, seq int64) string {
	var buf [40]byte
	return string(appendID(buf[:0], sep, seq))
}

// appendID appends what formatID renders to b.
func appendID(b []byte, sep string, seq int64) []byte {
	b = append(b, tracePrefix...)
	b = append(b, sep...)
	for pad := int64(100000); pad > seq; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, seq, 10)
}

// SpanRecord is one completed stage of one traced request. ID and Parent
// link spans into a per-trace tree across processes; Process and Node say
// where the span was recorded (client, router, node, home — and which
// fleet member), so a stitched trace reads as a topology, not a flat list.
type SpanRecord struct {
	Trace string `json:"trace"`
	// ID is the span's ID. A record at rest in a SpanStore may hold the
	// sequence number in seq instead, ID empty; no exported function
	// returns one in that form (see named).
	ID       string        `json:"id,omitempty"`
	Parent   string        `json:"parent,omitempty"`
	Process  string        `json:"process,omitempty"`
	Node     string        `json:"node,omitempty"`
	Stage    string        `json:"stage"`
	Template string        `json:"template"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`

	seq int64
}

// named gives every record of spans its ID as text, in place, and returns
// spans; the slice must be the caller's own copy.
func named(spans []SpanRecord) []SpanRecord {
	for i := range spans {
		if r := &spans[i]; r.ID == "" && r.seq != 0 {
			r.ID, r.seq = formatSpanID(r.seq), 0
		}
	}
	return spans
}

// Tracer records per-stage spans: each span lands in the registry's
// dssp_stage_seconds histogram (labels: stage, template) and — when a
// SpanStore is attached — in the per-trace store the /v1/trace endpoints
// serve. A nil *Tracer is a valid no-op, so instrumented code needs no nil
// checks.
type Tracer struct {
	reg   *Registry
	clock Clock

	// process and node identify where this tracer's spans are recorded;
	// set once at construction time (SetIdentity), before concurrent use.
	process, node string

	store *SpanStore

	// hists caches the dssp_stage_seconds handle per (stage, template).
	hists HandleCache[stageKey, *Histogram]
}

type stageKey struct{ stage, tmpl string }

// NewTracer builds a tracer recording into reg against clock. A tracer
// records into one registry for life (code that swaps registries builds a
// new tracer), so its cached handles never go stale.
func NewTracer(reg *Registry, clock Clock) *Tracer {
	return &Tracer{reg: reg, clock: clock}
}

// stageHist returns the stage-latency histogram for (stage, tmpl).
func (t *Tracer) stageHist(stage, tmpl string) *Histogram {
	return t.hists.Get(stageKey{stage, tmpl}, func() *Histogram {
		return t.reg.Histogram(MStageSeconds, L(LStage, stage), L(LTemplate, tmpl))
	})
}

// SetIdentity labels every span this tracer records with a process role
// ("client", "router", "node", "home") and a node name (fleet member id,
// empty for singletons). Call once, before the tracer sees traffic. It
// returns the tracer for chaining; a nil tracer stays a no-op.
func (t *Tracer) SetIdentity(process, node string) *Tracer {
	if t == nil {
		return nil
	}
	t.process, t.node = process, node
	return t
}

// SetStore attaches a bounded per-trace span store; spans recorded after
// the call are indexed by trace ID there. Call once, before traffic.
func (t *Tracer) SetStore(s *SpanStore) *Tracer {
	if t == nil {
		return nil
	}
	t.store = s
	return t
}

// Store returns the tracer's span store (nil for a nil tracer or when no
// store is attached).
func (t *Tracer) Store() *SpanStore {
	if t == nil {
		return nil
	}
	return t.store
}

// Registry returns the tracer's registry (nil for a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Now returns the tracer's clock reading, or 0 for a nil tracer.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// ObserveSpan records one completed span wholesale, filling in the
// tracer's identity where the record leaves Process/Node empty and
// assigning a fresh span ID when the record has none. It returns the
// span's ID so callers can hand it to downstream hops as their parent.
func (t *Tracer) ObserveSpan(rec SpanRecord) string {
	if t == nil {
		return ""
	}
	seq := t.record(rec)
	if rec.ID != "" {
		return rec.ID
	}
	return formatSpanID(seq)
}

// record is ObserveSpan without the ID's text: it numbers the span unless
// the record brings a number or an ID of its own, and returns the number.
func (t *Tracer) record(rec SpanRecord) int64 {
	if rec.ID == "" && rec.seq == 0 {
		rec.seq = spanSeq.Add(1)
	}
	if rec.Process == "" {
		rec.Process = t.process
	}
	if rec.Node == "" {
		rec.Node = t.node
	}
	t.stageHist(rec.Stage, rec.Template).Observe(rec.Duration)
	if t.store != nil {
		t.store.Add(rec)
	}
	return rec.seq
}

// Span is an in-progress stage measurement. The zero Span (from a nil
// tracer) is a no-op.
type Span struct {
	tr           *Tracer
	trace, stage string
	tmpl         string
	seq          int64
	parent       string
	node         string
	start        time.Duration
}

// StartSpan opens a span for one stage of one traced request, under a
// parent span ID ("" for a root). The span's own ID is assigned
// immediately — as a number; ID renders it — so it can be propagated
// downstream (the sealed message's ParentSpan field) before End.
func (t *Tracer) StartSpan(trace, parent, stage, tmpl string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, trace: trace, stage: stage, tmpl: tmpl,
		seq: spanSeq.Add(1), parent: parent, start: t.clock.Now()}
}

// ID returns the span's pre-assigned ID ("" for a no-op span). Each call
// makes the string: ask once, and only for a span whose ID goes somewhere.
func (s Span) ID() string {
	if s.tr == nil {
		return ""
	}
	return formatSpanID(s.seq)
}

// AppendID appends the span's ID to b, or nothing for a no-op span: ID
// without the string, for a sender that writes the ID straight into the
// message it forwards.
func (s Span) AppendID(b []byte) []byte {
	if s.tr == nil {
		return b
	}
	return appendID(b, "-s", s.seq)
}

// WithNode overrides the span's node label (e.g. the router labels its
// route spans with the target node instead of its own identity).
func (s Span) WithNode(node string) Span {
	s.node = node
	return s
}

// End closes the span, recording its duration on the tracer's clock.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.record(SpanRecord{
		Trace: s.trace, seq: s.seq, Parent: s.parent, Node: s.node,
		Stage: s.stage, Template: s.tmpl,
		Start: s.start, Duration: s.tr.clock.Now() - s.start,
	})
}

// DefaultStoreTraces bounds how many distinct traces a SpanStore retains;
// storeMaxSpans bounds the spans kept per trace. Both caps make the store
// safe to leave on in production: memory is O(traces × spans), not
// O(requests). storeReuseSpans is the largest record array a slot hands on
// to the next trace (a hop's usual span count: a process records one to three
// spans per statement), so one long trace cannot pin its array in the ring.
const (
	DefaultStoreTraces = 256
	storeMaxSpans      = 128
	storeReuseSpans    = 4
)

// SpanStore is a bounded in-memory index of spans by trace ID: the
// backing store of the /v1/trace/{id} and /v1/traces endpoints. Traces
// are evicted FIFO once the cap is reached; spans beyond the per-trace
// cap are dropped (a trace that long indicates a propagation loop, not a
// real request). Safe for concurrent use; shareable between tracers, so
// the simulator's client/node/home tracers can feed one fleet-wide store.
//
// Every request is a new trace, so what a trace costs to index is paid per
// request per process. The traces sit in a ring of slots in arrival order,
// and a new trace takes over the slot — and the record array — of the one
// it evicts: a full store indexes a trace of the usual length without
// allocating, and holds no more than the arrays its traces grew to.
type SpanStore struct {
	mu    sync.Mutex
	max   int
	index map[string]int // trace ID -> its slot
	slots []storedTrace  // grows to max, then a ring: slots[next] is the oldest
	next  int            // the slot the next new trace takes once the ring is full
}

type storedTrace struct {
	id    string
	spans []SpanRecord
}

// NewSpanStore builds a store retaining up to maxTraces traces
// (DefaultStoreTraces when <= 0).
func NewSpanStore(maxTraces int) *SpanStore {
	if maxTraces <= 0 {
		maxTraces = DefaultStoreTraces
	}
	return &SpanStore{max: maxTraces, index: make(map[string]int)}
}

// Add indexes one span under its trace ID. Spans without a trace ID are
// not indexable and are dropped.
func (s *SpanStore) Add(r SpanRecord) {
	if s == nil || r.Trace == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, known := s.index[r.Trace]
	if !known {
		i = s.claim(r.Trace)
	}
	if t := &s.slots[i]; len(t.spans) < storeMaxSpans {
		t.spans = append(t.spans, r)
	}
}

// claim gives a new trace its slot: a fresh one while the store is filling,
// then the oldest trace's, evicting it.
func (s *SpanStore) claim(id string) int {
	i := len(s.slots)
	if i < s.max {
		s.slots = append(s.slots, storedTrace{id: id})
	} else {
		i = s.next
		s.next = (s.next + 1) % s.max
		t := &s.slots[i]
		delete(s.index, t.id)
		if cap(t.spans) > storeReuseSpans {
			t.spans = nil
		}
		clear(t.spans) // the evicted trace's strings go with it
		t.id, t.spans = id, t.spans[:0]
	}
	s.index[id] = i
	return i
}

// Trace returns a copy of one trace's spans in arrival order (nil when
// the trace is unknown or evicted).
func (s *SpanStore) Trace(id string) []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var spans []SpanRecord
	if i, ok := s.index[id]; ok {
		spans = append(spans, s.slots[i].spans...)
	}
	s.mu.Unlock()
	return named(spans)
}

// oldestFirst calls f on every retained trace in arrival order. The caller
// holds mu.
func (s *SpanStore) oldestFirst(f func(*storedTrace)) {
	start := 0
	if len(s.slots) == s.max {
		start = s.next
	}
	for n := range s.slots {
		f(&s.slots[(start+n)%len(s.slots)])
	}
}

// TraceIDs returns up to n retained trace IDs, oldest first.
func (s *SpanStore) TraceIDs(n int) []string {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.slots))
	s.oldestFirst(func(t *storedTrace) { ids = append(ids, t.id) })
	if len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	return ids
}

// All returns every retained span, grouped by trace in trace-arrival
// order — the flattened input Stitch expects.
func (s *SpanStore) All() []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var out []SpanRecord
	s.oldestFirst(func(t *storedTrace) { out = append(out, t.spans...) })
	s.mu.Unlock()
	return named(out)
}
