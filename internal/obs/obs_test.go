package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(MCacheHits, L(LTemplate, "Q1"))
	c.Inc()
	c.Add(2)
	if r.Counter(MCacheHits, L(LTemplate, "Q1")).Value() != 3 {
		t.Fatal("counter handle not shared")
	}
	if r.Counter(MCacheHits, L(LTemplate, "Q2")).Value() != 0 {
		t.Fatal("different labels must be a different counter")
	}
	g := r.Gauge(MCacheEntries)
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("a", "1"), L("b", "2"))
	b := r.Counter("m", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not matter")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10}, // 1024µs > 2^9µs, <= 2^10µs
		{time.Second, 20},      // 1e6µs <= 2^20µs
		{1000 * time.Second, NumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
		h.Observe(c.d)
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d", h.Count())
	}
	bounds := BucketBounds()
	for i := 0; i < NumBuckets-1; i++ {
		if bounds[i+1] != 2*bounds[i] {
			t.Fatalf("bounds not log-spaced at %d", i)
		}
	}
}

func TestSnapshotMergeAndJSON(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter(MCacheHits, L(LTemplate, "Q1")).Add(2)
	r2.Counter(MCacheHits, L(LTemplate, "Q1")).Add(3)
	r2.Counter(MCacheMisses, L(LTemplate, "Q1")).Add(1)
	r1.Histogram(MStageSeconds, L(LStage, StageSeal), L(LTemplate, "Q1")).Observe(time.Millisecond)
	r2.Histogram(MStageSeconds, L(LStage, StageSeal), L(LTemplate, "Q1")).Observe(3 * time.Millisecond)

	m := Merge(r1.Snapshot(), r2.Snapshot())
	if got := m.Find(MCacheHits, map[string]string{LTemplate: "Q1"}); got == nil || got.Value != 5 {
		t.Fatalf("merged hits = %+v", got)
	}
	hist := m.Find(MStageSeconds, map[string]string{LStage: StageSeal, LTemplate: "Q1"})
	if hist == nil || hist.Count != 2 || time.Duration(hist.SumNanos) != 4*time.Millisecond {
		t.Fatalf("merged histogram = %+v", hist)
	}

	// JSON round trip preserves identity and values.
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(m.Metrics) {
		t.Fatalf("round trip lost metrics: %d != %d", len(back.Metrics), len(m.Metrics))
	}
	for i := range back.Metrics {
		if back.Metrics[i].ID() != m.Metrics[i].ID() {
			t.Fatalf("identity changed: %s != %s", back.Metrics[i].ID(), m.Metrics[i].ID())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(MCacheHits, L(LTemplate, "Q1")).Add(4)
	r.Gauge(MCacheEntries).Set(2)
	r.Histogram(MRequestSeconds, L(LKind, KindQuery), L(LTemplate, "Q1")).Observe(5 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dssp_cache_hits_total counter",
		`dssp_cache_hits_total{template="Q1"} 4`,
		"# TYPE dssp_cache_entries gauge",
		"dssp_cache_entries 2",
		"# TYPE dssp_request_seconds histogram",
		`dssp_request_seconds_bucket{kind="query",template="Q1",le="+Inf"} 1`,
		`dssp_request_seconds_count{kind="query",template="Q1"} 1`,
		`dssp_request_seconds_sum{kind="query",template="Q1"} 0.005`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	r := NewRegistry()
	var now time.Duration
	tr := NewTracer(r, ClockFunc(func() time.Duration { return now })).SetStore(NewSpanStore(0))

	id := NewTraceID()
	sp := tr.StartSpan(id, SpanID{}, StageLookup, "Q1")
	now = 3 * time.Millisecond
	sp.End()
	tr.ObserveSpan(SpanRecord{Trace: id, Stage: StageHomeExec, Template: "Q1", Start: now, Duration: 7 * time.Millisecond})

	spans := tr.Store().Trace(id)
	if len(spans) != 2 || spans[0].Stage != StageLookup || spans[0].Duration != 3*time.Millisecond {
		t.Fatalf("spans = %+v", spans)
	}
	h := r.Snapshot().Find(MStageSeconds, map[string]string{LStage: StageHomeExec, LTemplate: "Q1"})
	if h == nil || h.Count != 1 || time.Duration(h.SumNanos) != 7*time.Millisecond {
		t.Fatalf("stage histogram = %+v", h)
	}

	// Nil tracers are inert.
	var nilTr *Tracer
	if id := nilTr.ObserveSpan(SpanRecord{Trace: id, Stage: StageSeal, Template: "Q1"}); !id.IsZero() {
		t.Fatalf("nil tracer numbered a span: %v", id)
	}
	nilTr.StartSpan(id, SpanID{}, StageSeal, "Q1").End()
	if nilTr.Now() != 0 || nilTr.Registry() != nil || nilTr.Store() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, WallClock()).SetStore(NewSpanStore(0))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter(MCacheHits, L(LTemplate, "Q1")).Inc()
				r.Histogram(MStageSeconds, L(LStage, StageSeal), L(LTemplate, "Q1")).Observe(time.Duration(i))
				tr.ObserveSpan(SpanRecord{Trace: NewTraceID(), Stage: StageOpen, Template: "Q1", Duration: time.Duration(w)})
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = tr.Store().All()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter(MCacheHits, L(LTemplate, "Q1")).Value(); got != 4000 {
		t.Fatalf("lost increments: %d", got)
	}
}

// The IDs are numbers until read; the text peers, JSON readers and stored
// traces already know (<prefix>-%06d, <prefix>-s%06d, the prefix eight hex
// digits) must not move, and the zero ID reads as "".
func TestIDFormat(t *testing.T) {
	for _, proc := range []uint32{process, 0, 0xabc, 0xffffffff} {
		for _, seq := range []uint64{1, 9, 10, 99999, 100000, 999999, 1000000, 123456789, 1<<64 - 1} {
			if got, want := (SpanID{proc, seq}).String(), fmt.Sprintf("%08x-s%06d", proc, seq); got != want {
				t.Errorf("SpanID{%x, %d} = %q, want %q", proc, seq, got, want)
			}
			if got, want := (TraceID{proc, seq}).String(), fmt.Sprintf("%08x-%06d", proc, seq); got != want {
				t.Errorf("TraceID{%x, %d} = %q, want %q", proc, seq, got, want)
			}
		}
	}
	if s := (TraceID{}).String() + (SpanID{}).String(); s != "" {
		t.Errorf("zero IDs read %q, want nothing", s)
	}
	if id := NewTraceID(); id.Proc != process || id.Seq == 0 {
		t.Errorf("NewTraceID = %+v, want this process's prefix %08x and a sequence number", id, process)
	}
}

// Text is the only place an ID is parsed back (/v1/trace/{id}, JSON): it
// must read exactly what String writes, for any ID, and nothing else.
func TestIDTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tid := TraceID{rng.Uint32(), rng.Uint64() >> uint(rng.Intn(64))}
		sid := SpanID(tid)
		if tid.IsZero() {
			continue
		}
		if got, err := ParseTraceID(tid.String()); err != nil || got != tid {
			t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", tid, got, err, tid)
		}
		var got SpanID
		if err := got.UnmarshalText([]byte(sid.String())); err != nil || got != sid {
			t.Fatalf("SpanID.UnmarshalText(%q) = %v, %v; want %v", sid, got, err, sid)
		}
		var back struct {
			T TraceID
			S SpanID
		}
		b, _ := json.Marshal(struct {
			T TraceID
			S SpanID
		}{tid, sid})
		if err := json.Unmarshal(b, &back); err != nil || back.T != tid || back.S != sid {
			t.Fatalf("JSON %s read back as %+v, %v", b, back, err)
		}
	}
	for _, bad := range []string{
		"", "00000000-000000", "0000000-000001", "0000000g-000001", "0000000A-000001",
		"00000001-00001", "00000001-0000001", "00000001+000001", "00000001-s000001",
		"00000001-00000x", "00000001-18446744073709551616", "00000001-000001 ",
	} {
		if id, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) = %v, want an error", bad, id)
		}
	}
	for _, bad := range []string{"00000001-000001", "00000001-s00001", "00000000-s000000", "00000001-s0000001"} {
		var id SpanID
		if err := id.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("SpanID.UnmarshalText(%q) = %v, want an error", bad, id)
		}
	}
}

// Spans are numbers wherever they are kept and text only where they are
// read. Every reader — Span.ID, ObserveSpan's return, the store's Trace and
// All — must hand out the IDs the script is known to draw, and JSON over
// either must show exactly the text a tracer that formatted each ID up
// front wrote: here, records written out by hand.
func TestSpanIDLazyFormat(t *testing.T) {
	var now time.Duration
	tr := NewTracer(NewRegistry(), ClockFunc(func() time.Duration { return now })).
		SetIdentity(ProcNode, "n1").SetStore(NewSpanStore(0))
	base := spanSeq.Load()
	id := func(k uint64) SpanID { return SpanID{process, base + k} }
	t1, t2 := TraceID{0xfeed, 1}, TraceID{0xfeed, 2}

	seal := tr.ObserveSpan(SpanRecord{Trace: t1, Stage: StageSeal, Template: "Q1", Duration: time.Millisecond})
	lk := tr.StartSpan(t1, seal, StageLookup, "Q1")
	now = 2 * time.Millisecond
	lk.End()
	net := tr.StartSpan(t1, seal, StageNetwork, "Q1").WithNode("n2")
	netID := net.ID()
	given := tr.ObserveSpan(SpanRecord{Trace: t2, ID: SpanID{7, 7}, Parent: netID, Process: ProcHome, Stage: StageHomeExec, Template: "Q1"})
	now = 5 * time.Millisecond
	net.End()
	tr.ObserveSpan(SpanRecord{Trace: t2, Stage: StageOpen, Template: "Q1", Start: now, Duration: time.Millisecond})

	if seal != id(1) || netID != id(3) || net.ID() != netID || given != id(4) {
		t.Fatalf("IDs handed out: seal %v, network %v then %v, observed %v; want %v, %v, the same, %v",
			seal, netID, net.ID(), given, id(1), id(3), id(4))
	}
	want := []SpanRecord{
		{Trace: t1, ID: id(1), Process: ProcNode, Node: "n1", Stage: StageSeal, Template: "Q1", Duration: time.Millisecond},
		{Trace: t1, ID: id(2), Parent: id(1), Process: ProcNode, Node: "n1", Stage: StageLookup, Template: "Q1", Duration: 2 * time.Millisecond},
		{Trace: t2, ID: id(4), Parent: id(3), Process: ProcHome, Node: "n1", Stage: StageHomeExec, Template: "Q1"},
		{Trace: t1, ID: id(3), Parent: id(1), Process: ProcNode, Node: "n2", Stage: StageNetwork, Template: "Q1", Start: 2 * time.Millisecond, Duration: 3 * time.Millisecond},
		{Trace: t2, ID: id(5), Process: ProcNode, Node: "n1", Stage: StageOpen, Template: "Q1", Start: 5 * time.Millisecond, Duration: time.Millisecond},
	}
	// The same records as a reader of the string IDs wrote them.
	text := func(k uint64) string { return fmt.Sprintf("%08x-s%06d", process, base+k) }
	wantJSON := func(rs ...int) string {
		lines := []string{
			`{"trace":"0000feed-000001","id":"` + text(1) + `","process":"node","node":"n1","stage":"seal","template":"Q1","start_ns":0,"duration_ns":1000000}`,
			`{"trace":"0000feed-000001","id":"` + text(2) + `","parent":"` + text(1) + `","process":"node","node":"n1","stage":"cache_lookup","template":"Q1","start_ns":0,"duration_ns":2000000}`,
			`{"trace":"0000feed-000002","id":"` + text(4) + `","parent":"` + text(3) + `","process":"home","node":"n1","stage":"home_exec","template":"Q1","start_ns":0,"duration_ns":0}`,
			`{"trace":"0000feed-000001","id":"` + text(3) + `","parent":"` + text(1) + `","process":"node","node":"n2","stage":"network","template":"Q1","start_ns":2000000,"duration_ns":3000000}`,
			`{"trace":"0000feed-000002","id":"` + text(5) + `","process":"node","node":"n1","stage":"open","template":"Q1","start_ns":5000000,"duration_ns":1000000}`,
		}
		var out []string
		for _, r := range rs {
			out = append(out, lines[r])
		}
		return "[" + strings.Join(out, ",") + "]"
	}
	for _, c := range []struct {
		reader    string
		got, want []SpanRecord
		json      string
	}{
		{"Store.Trace", tr.Store().Trace(t1), []SpanRecord{want[0], want[1], want[3]}, wantJSON(0, 1, 3)},
		{"Store.All", tr.Store().All(), []SpanRecord{want[0], want[1], want[3], want[2], want[4]}, wantJSON(0, 1, 3, 2, 4)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %+v\nwant %+v", c.reader, c.got, c.want)
		}
		if gotJSON, _ := json.Marshal(c.got); string(gotJSON) != c.json {
			t.Errorf("%s as JSON = %s\nwant %s", c.reader, gotJSON, c.json)
		}
		var back []SpanRecord
		if err := json.Unmarshal([]byte(c.json), &back); err != nil || !reflect.DeepEqual(back, c.want) {
			t.Errorf("%s's JSON read back as %+v, %v", c.reader, back, err)
		}
	}
	// Stitching keeps the IDs as they were read, and its JSON the text.
	st := Stitch(tr.Store().All())
	if len(st) != 2 || st[0].Trace != t1 || len(st[0].Spans) != 3 || st[0].Spans[1].Parent != id(1) {
		t.Fatalf("Stitch = %+v", st)
	}
	stJSON, _ := json.Marshal(st[0])
	if !bytes.Contains(stJSON, []byte(`"Trace":"0000feed-000001"`)) || !bytes.Contains(stJSON, []byte(`"parent":"`+text(1)+`"`)) {
		t.Errorf("stitched trace as JSON = %s", stJSON)
	}
}

// The tracer's handle cache must stay bounded under a flood of template
// IDs (they arrive from the untrusted tier) and must change nothing the
// registry shows: every span still lands in the instrument Registry.get
// would have picked, the overflow one included.
func TestTracerStageCacheBounded(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCap(4)
	tr := NewTracer(r, WallClock())
	const flood = 3 * DefaultLabelCap
	for i := 0; i < flood; i++ {
		tr.ObserveSpan(SpanRecord{Trace: TraceID{1, 1}, Stage: StageLookup, Template: fmt.Sprintf("forged%d", i), Duration: time.Millisecond})
	}
	tr.ObserveSpan(SpanRecord{Trace: TraceID{1, 1}, Stage: StageLookup, Template: "forged0", Duration: time.Millisecond}) // a cached handle
	if n := tr.hists.Len(); n > DefaultLabelCap {
		t.Fatalf("handle cache holds %d entries, cap %d", n, DefaultLabelCap)
	}
	snap := r.Snapshot()
	first := snap.Find(MStageSeconds, map[string]string{LStage: StageLookup, LTemplate: "forged0"})
	over := snap.Find(MStageSeconds, map[string]string{LStage: OverflowLabelValue, LTemplate: OverflowLabelValue})
	if first == nil || first.Count != 2 {
		t.Fatalf("forged0 histogram = %+v, want 2 observations", first)
	}
	if over == nil || over.Count != flood-4 {
		t.Fatalf("overflow histogram = %+v, want %d observations", over, flood-4)
	}
}

// The store is a ring of traces in arrival order: past its bound the oldest
// trace goes, whichever trace a span belongs to it joins that trace, and the
// readers see arrival order across the wrap.
func TestSpanStoreEvictsOldestFirst(t *testing.T) {
	s := NewSpanStore(3)
	// Trace "a" is TraceID{1, 'a'}; "" is no trace.
	id := func(name string) TraceID {
		if name == "" {
			return TraceID{}
		}
		return TraceID{1, uint64(name[0])}
	}
	ids := func(names ...string) (out []TraceID) {
		for _, n := range names {
			out = append(out, id(n))
		}
		return out
	}
	add := func(trace, stage string) { s.Add(SpanRecord{Trace: id(trace), Stage: stage}) }
	add("a", "1")
	add("b", "1")
	add("a", "2")
	add("c", "1")
	add("", "dropped")
	if got := s.TraceIDs(10); !reflect.DeepEqual(got, ids("a", "b", "c")) {
		t.Fatalf("TraceIDs = %v", got)
	}
	add("d", "1") // evicts a
	add("b", "2")
	add("e", "1") // evicts b
	add("a", "3") // a is a new trace again; evicts c
	if got := s.TraceIDs(10); !reflect.DeepEqual(got, ids("d", "e", "a")) {
		t.Errorf("TraceIDs after the wrap = %v, want [d e a]", got)
	}
	if got := s.TraceIDs(2); !reflect.DeepEqual(got, ids("e", "a")) {
		t.Errorf("TraceIDs(2) = %v, want the newest two", got)
	}
	for _, gone := range []string{"b", "c"} {
		if spans := s.Trace(id(gone)); spans != nil {
			t.Errorf("evicted trace %s still served: %+v", gone, spans)
		}
	}
	if spans := s.Trace(id("a")); len(spans) != 1 || spans[0].Stage != "3" {
		t.Errorf("trace a after its eviction and return = %+v, want only the new span", spans)
	}
	var order []string
	for _, r := range s.All() {
		order = append(order, string(rune(r.Trace.Seq))+r.Stage)
	}
	if !reflect.DeepEqual(order, []string{"d1", "e1", "a3"}) {
		t.Errorf("All = %v", order)
	}
	for i := 0; i < storeMaxSpans+10; i++ {
		add("e", "n")
	}
	if n := len(s.Trace(id("e"))); n != storeMaxSpans {
		t.Errorf("a trace holds %d spans, want the cap %d", n, storeMaxSpans)
	}
}

// A full store indexes a trace of the usual length in the slot — and the
// record array — of the trace it evicts, so it allocates nothing; and it
// does not hand a long trace's array on, so its retained size stays what
// usual traces need.
func TestSpanStoreReusesEvictedSlots(t *testing.T) {
	const traces = 64
	s := NewSpanStore(traces)
	ids := make([]TraceID, 4*traces)
	for i := range ids {
		ids[i] = TraceID{1, uint64(i + 1)}
	}
	fill := func(from, to, spans int) {
		for _, id := range ids[from:to] {
			for k := 0; k < spans; k++ {
				s.Add(SpanRecord{Trace: id, Stage: StageRoute})
			}
		}
	}
	fill(0, traces, 3)
	next := traces
	if n := testing.AllocsPerRun(traces, func() {
		fill(next, next+1, 3)
		next++
	}); n != 0 {
		t.Errorf("a three-span trace into a full store: %v allocations, want 0", n)
	}
	retained := func() (n int) {
		for _, t := range s.slots {
			n += cap(t.spans)
		}
		return n
	}
	if got := retained(); got > traces*storeReuseSpans {
		t.Errorf("store of %d three-span traces retains %d records, want <= %d", traces, got, traces*storeReuseSpans)
	}
	fill(next, next+1, storeMaxSpans) // one runaway trace...
	next++
	fill(next, next+traces, 3) // ...evicted again
	if got := retained(); got > traces*storeReuseSpans {
		t.Errorf("after a %d-span trace came and went the store retains %d records, want <= %d", storeMaxSpans, got, traces*storeReuseSpans)
	}
	if spans := s.Trace(ids[next+traces-1]); len(spans) != 3 {
		t.Errorf("newest trace = %+v", spans)
	}
}

// BenchmarkSpanStartEnd is the price of one span on a warm tracer: no
// allocation at all (BENCH_allocs.json gates it).
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(NewRegistry(), WallClock()).SetIdentity(ProcNode, "n0")
	trace := NewTraceID()
	tr.StartSpan(trace, SpanID{}, StageLookup, "Q1").End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartSpan(trace, SpanID{1, 1}, StageLookup, "Q1").End()
	}
}
