package obs

import (
	"sync"
	"time"
)

// SpanRecord is one completed stage of one traced request. ID and Parent
// link spans into a per-trace tree across processes; Process and Node say
// where the span was recorded (client, router, node, home — and which
// fleet member), so a stitched trace reads as a topology, not a flat list.
// The IDs are numbers at rest and text in JSON (TraceID, SpanID).
type SpanRecord struct {
	Trace    TraceID       `json:"trace"`
	ID       SpanID        `json:"id,omitzero"`
	Parent   SpanID        `json:"parent,omitzero"`
	Process  string        `json:"process,omitempty"`
	Node     string        `json:"node,omitempty"`
	Stage    string        `json:"stage"`
	Template string        `json:"template"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
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
// tracer's identity where the record leaves Process/Node empty, and gives
// it a fresh ID, which it returns so callers can hand it to downstream
// hops as their parent.
func (t *Tracer) ObserveSpan(rec SpanRecord) SpanID {
	if t == nil {
		return SpanID{}
	}
	rec.ID = newSpanID()
	t.record(rec)
	return rec.ID
}

// record lands one numbered span in its stage histogram and the store.
func (t *Tracer) record(rec SpanRecord) {
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
}

// Span is an in-progress stage measurement. The zero Span (from a nil
// tracer) is a no-op.
type Span struct {
	tr          *Tracer
	trace       TraceID
	id, parent  SpanID
	stage, tmpl string
	node        string
	start       time.Duration
}

// StartSpan opens a span for one stage of one traced request, under a
// parent span (zero for a root). The span's own ID is assigned
// immediately, so it can be propagated downstream (the sealed message's
// ParentSpan field) before End.
func (t *Tracer) StartSpan(trace TraceID, parent SpanID, stage, tmpl string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, trace: trace, id: newSpanID(), parent: parent,
		stage: stage, tmpl: tmpl, start: t.clock.Now()}
}

// ID returns the span's pre-assigned ID (zero for a no-op span).
func (s Span) ID() SpanID { return s.id }

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
		Trace: s.trace, ID: s.id, Parent: s.parent, Node: s.node,
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
	index map[TraceID]int // trace ID -> its slot
	slots []storedTrace   // grows to max, then a ring: slots[next] is the oldest
	next  int             // the slot the next new trace takes once the ring is full
}

type storedTrace struct {
	id    TraceID
	spans []SpanRecord
}

// NewSpanStore builds a store retaining up to maxTraces traces
// (DefaultStoreTraces when <= 0).
func NewSpanStore(maxTraces int) *SpanStore {
	if maxTraces <= 0 {
		maxTraces = DefaultStoreTraces
	}
	return &SpanStore{max: maxTraces, index: make(map[TraceID]int)}
}

// Add indexes one span under its trace ID. Spans without a trace ID are
// not indexable and are dropped.
func (s *SpanStore) Add(r SpanRecord) {
	if s == nil || r.Trace.IsZero() {
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
func (s *SpanStore) claim(id TraceID) int {
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
		clear(t.spans) // the evicted trace's label strings go with it
		t.id, t.spans = id, t.spans[:0]
	}
	s.index[id] = i
	return i
}

// Trace returns a copy of one trace's spans in arrival order (nil when
// the trace is unknown or evicted).
func (s *SpanStore) Trace(id TraceID) []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var spans []SpanRecord
	if i, ok := s.index[id]; ok {
		spans = append(spans, s.slots[i].spans...)
	}
	s.mu.Unlock()
	return spans
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
func (s *SpanStore) TraceIDs(n int) []TraceID {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]TraceID, 0, len(s.slots))
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
	return out
}
