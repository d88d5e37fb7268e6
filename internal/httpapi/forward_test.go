package httpapi

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// stubNodes are frame servers standing in for a router's nodes: each
// records the statement bodies it is sent, per op, and answers with what
// the test gives it.
type stubNodes struct {
	mu   sync.Mutex
	got  map[Op][][]byte
	urls []string
}

func startStubNodes(t testing.TB, n int, answer func(op Op, resp *frame)) *stubNodes {
	t.Helper()
	s := &stubNodes{got: map[Op][][]byte{}}
	record := func(_ context.Context, req, resp *frame) {
		s.mu.Lock()
		s.got[req.op] = append(s.got[req.op], bytes.Clone(req.body))
		s.mu.Unlock()
		answer(req.op, resp)
	}
	for i := 0; i < n; i++ {
		srv := startFrameServer(t, &frameOps{OpQuery: record, OpUpdate: record, OpInvalidate: record})
		s.urls = append(s.urls, srv.URL)
	}
	return s
}

func (s *stubNodes) sent(op Op) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got[op]
}

// routeSpans is the IDs of the router's route spans in a trace.
func routeSpans(rs *RouterServer, trace obs.TraceID) map[obs.SpanID]bool {
	ids := map[obs.SpanID]bool{}
	for _, sp := range rs.Tracer.Store().Trace(trace) {
		ids[sp.ID] = true
	}
	return ids
}

// TestRouterForwardsQueryBytes: at every exposure, the node is sent the
// client's query byte for byte but for its parent span, which is the
// router's route span, and the client gets the node's answer byte for
// byte — a sealed result, a view result in the clear, or a body no
// decoder would take, which the router does not read.
func TestRouterForwardsQueryBytes(t *testing.T) {
	var answer atomic.Pointer[[]byte]
	nodes := startStubNodes(t, 1, func(_ Op, resp *frame) { resp.body = append(resp.body, *answer.Load()...) })
	rs := NewRouterServer(core.Analyze(apps.Toystore(), core.DefaultOptions()), nodes.urls, RouterOptions{})
	conn := dialFrames(t, startServer(t, rs.Handler()).URL)
	stream := uint32(0)
	for _, exp := range allExposures {
		sq, _, sr := sealedAt(t, exp)
		sq.TraceID = obs.TraceID{Proc: 0x7e, Seq: uint64(exp) + 1}
		for _, a := range [][]byte{(&queryAnswer{result: sr, hit: true}).appendWire(nil), []byte("not a query answer")} {
			answer.Store(&a)
			stream++
			body := (*queryMsg)(&sq).appendWire(nil)
			got := conn.exchange(t, encodeFrame(&frame{op: OpQuery, stream: stream, body: body}))
			if got.status != statusOK || !bytes.Equal(got.body, a) {
				t.Errorf("%v: router answered %v %q, want the node's %q", exp, got.status, got.body, a)
			}
			sent := nodes.sent(OpQuery)
			fwd, _, err := wire.DecodeSealedQuery(sent[len(sent)-1], wire.WithTrace)
			if err != nil {
				t.Fatalf("%v: node was sent an undecodable query: %v", exp, err)
			}
			if !routeSpans(rs, sq.TraceID)[fwd.ParentSpan] {
				t.Errorf("%v: forwarded parent span %v is no route span of the router", exp, fwd.ParentSpan)
			}
			want := sq
			want.ParentSpan = fwd.ParentSpan
			if !reflect.DeepEqual(fwd, want) {
				t.Errorf("%v: node was sent\n%+v\nwant\n%+v", exp, fwd, want)
			}
		}
	}
}

// TestRouterForwardsUpdateBytes: the exec node and every node of the
// fan-out are sent the client's update byte for byte but for the parent
// span, each its own route span; the router answers the exec node's
// sequence and affected count and the fleet's sum of invalidations.
func TestRouterForwardsUpdateBytes(t *testing.T) {
	nodes := startStubNodes(t, 2, func(op Op, resp *frame) {
		if op == OpUpdate {
			resp.seq = 41
			resp.body = (&updateAnswer{affected: 3, invalidated: 5}).appendWire(resp.body)
			return
		}
		n := countMsg(7)
		resp.body = n.appendWire(resp.body)
	})
	rs := NewRouterServer(core.Analyze(apps.Toystore(), core.DefaultOptions()), nodes.urls, RouterOptions{})
	_, su, _ := sealedAt(t, template.ExpBlind) // a blind update is broadcast: every node hears of it
	su.TraceID = obs.TraceID{Proc: 0x7e, Seq: 100}
	p := NewNodeProxy(startServer(t, rs.Handler()).URL, &http.Client{Timeout: DefaultTimeout}, nil)
	affected, invalidated, seq, err := p.Update(context.Background(), su)
	if err != nil {
		t.Fatal(err)
	}
	pushes := nodes.sent(OpInvalidate)
	if affected != 3 || seq != 41 || invalidated != 5+7*len(pushes) {
		t.Errorf("router answered affected %d invalidated %d seq %d; want 3, %d, 41", affected, invalidated, seq, 5+7*len(pushes))
	}
	targets, _ := rs.Router.Planner().Targets(su.TemplateID)
	if len(targets) < 2 || len(pushes) != len(targets)-1 {
		t.Fatalf("%d pushes for targets %v: the test wants a fan-out past the exec node", len(pushes), targets)
	}
	routes := routeSpans(rs, su.TraceID)
	parents := map[obs.SpanID]bool{}
	for _, b := range append(nodes.sent(OpUpdate), pushes...) {
		fwd, _, err := wire.DecodeSealedUpdate(b)
		if err != nil {
			t.Fatalf("node was sent an undecodable update: %v", err)
		}
		if !routes[fwd.ParentSpan] || parents[fwd.ParentSpan] {
			t.Errorf("forwarded parent span %v: not a route span of its own", fwd.ParentSpan)
		}
		parents[fwd.ParentSpan] = true
		want := su
		want.ParentSpan = fwd.ParentSpan
		if !reflect.DeepEqual(fwd, want) {
			t.Errorf("node was sent\n%+v\nwant\n%+v", fwd, want)
		}
	}
}

// BenchmarkRouterQuery is one sealed query through a router over framed
// loopback connections: NodeProxy.Query to a RouterServer, which routes
// it from its head and forwards it to a node answering a sealed result,
// and passes that answer back. What the router adds to a hop
// (BenchmarkFrameRoundTrip) is what the row guards. Gated in
// BENCH_allocs.json.
func BenchmarkRouterQuery(b *testing.B) {
	sq, _, sr := sealedAt(b, template.ExpStmt)
	sq.TraceID = obs.NewTraceID()
	answer := (&queryAnswer{result: sr, hit: true}).appendWire(nil)
	node := startFrameServer(b, &frameOps{OpQuery: func(_ context.Context, _, resp *frame) {
		resp.body = append(resp.body, answer...)
	}})
	rs := NewRouterServer(core.Analyze(apps.Toystore(), core.DefaultOptions()), []string{node.URL}, RouterOptions{})
	p := NewNodeProxy(startServer(b, rs.Handler()).URL, &http.Client{Timeout: DefaultTimeout}, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if hopSink.resp.result, hopSink.resp.hit, err = p.Query(ctx, sq); err != nil {
			b.Fatal(err)
		}
	}
}
