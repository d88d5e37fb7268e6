package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// startServer serves h on a loopback listener until the test ends, then
// shuts it down the way a deployment does — its frame connections
// included, which httptest.Server.Close alone would leave open.
func startServer(t testing.TB, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := Shutdown(ctx, srv.Config); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		srv.Close()
	})
	return srv
}

// startFrameServer serves ops alone on PathFrames.
func startFrameServer(t testing.TB, ops *frameOps) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(PathFrames, &frameServer{ops: ops})
	return startServer(t, mux)
}

// encodeFrame is a whole frame as finishFrame writes it.
func encodeFrame(f *frame) []byte {
	return finishFrame(append(startFrame(nil), f.body...), f)
}

// rawFrame is a frame assembled byte by byte, so a test can garble any
// field: the staleness field is given as its encoded bytes.
func rawFrame(op Op, stream uint32, st status, seq, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(1+4+1+len(seq)+len(body)))
	b = append(b, byte(op))
	b = binary.BigEndian.AppendUint32(b, stream)
	b = append(b, byte(st))
	return append(append(b, seq...), body...)
}

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// rawConn is a test's own end of an upgraded connection: it writes bytes
// as given and reads answers as frames.
type rawConn struct {
	nc net.Conn
	r  *bufio.Reader
}

func dialFrames(t *testing.T, base string) *rawConn {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.WriteString(nc, "GET "+PathFrames+" HTTP/1.1\r\nHost: "+u.Host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+frameProtocol+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(nc)
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %s", resp.Status)
	}
	return &rawConn{nc: nc, r: r}
}

func (c *rawConn) send(t *testing.T, b []byte) {
	t.Helper()
	if _, err := c.nc.Write(b); err != nil {
		t.Fatal(err)
	}
}

// recv reads the next answer; its body is the rawConn's to keep.
func (c *rawConn) recv() (frame, error) {
	var f frame
	err := readFrame(c.r, &f, &wireBuf{}, dirAnswer)
	return f, err
}

// exchange sends one frame and reads one answer, which must be on the
// same op and stream.
func (c *rawConn) exchange(t *testing.T, b []byte) frame {
	t.Helper()
	c.send(t, b)
	f, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if sent := binary.BigEndian.Uint32(b[5:]); f.stream != sent || f.op != Op(b[4]) {
		t.Fatalf("sent %v on stream %d, answered %v on %d", Op(b[4]), sent, f.op, f.stream)
	}
	return f
}

// FuzzReadFrame fuzzes the frame reader, which faces the untrusted tier on
// every connection (ROADMAP: a fuzzer for every decoder that accepts bytes
// from there), over a stream of frames the way a connection's read loop
// sees it. It never panics; a length over the op's bound is refused
// before the buffer grows, one under the shortest header refused too; an
// accepted frame has a known op and status and re-encodes to exactly the
// bytes it was read from, so no staleness field is ever read from a
// garbled encoding; bytes after the last whole frame are an error, not a
// shorter frame; and a stream ID already in flight on the connection is
// refused by the read loop's bookkeeping.
func FuzzReadFrame(f *testing.F) {
	var stream uint32
	for _, exp := range allExposures {
		for i, e := range envelopes(f, exp) {
			stream++
			f.Add(encodeFrame(&frame{op: e.op, stream: stream, status: status(i) % numStatus,
				seq: uint64(i) << (7 * i), body: e.msg.appendWire(nil)}))
		}
	}
	sq, _, _ := sealedAt(f, template.ExpStmt)
	query := encodeFrame(&frame{op: OpQuery, stream: 1, body: (*queryMsg)(&sq).appendWire(nil)})
	over := binary.BigEndian.AppendUint32(nil, OpQuery.bound(dirRequest)+1)
	f.Add(append(over, byte(OpQuery), 0, 0, 0, 1))                                           // a length over the bound
	f.Add(query[:7])                                                                         // a truncated header
	f.Add(rawFrame(OpQuery, 1, statusOK, []byte{0}, nil)[:4+frameHeaderMin-1])               // a header cut short of its length
	f.Add(binary.BigEndian.AppendUint32(nil, frameHeaderMin-1))                              // a length under the header
	f.Add(rawFrame(numOps, 1, statusOK, []byte{0}, nil))                                     // an unknown op
	f.Add(rawFrame(OpQuery, 1, numStatus, []byte{0}, nil))                                   // an unknown status
	f.Add(rawFrame(OpInvalidate, 1, statusOK, []byte{0x80, 0x00}, nil))                      // a non-minimal seq
	f.Add(rawFrame(OpInvalidate, 1, statusOK, bytes.Repeat([]byte{0xff}, 10), []byte{1}))    // an overflowing seq
	f.Add(rawFrame(OpExecQuery, 1, statusLag, []byte{0x80}, nil))                            // a seq that runs off the header
	f.Add(append(append([]byte(nil), query...), query[:len(query)-1]...))                    // trailing bytes
	f.Add(append(append([]byte(nil), query...), query...))                                   // a duplicate stream ID
	f.Add(rawFrame(OpQuery, 1, statusOK, []byte{0}, (*queryMsg)(&sq).appendWire(nil)[:1+4])) // a query whose trace ID is cut short
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bufio.NewReader(bytes.NewReader(b))
		wb := &wireBuf{}
		conn := &serverConn{streams: make(map[uint32]struct{})}
		seen := map[uint32]bool{}
		consumed := 0
		for {
			var fr frame
			capBefore := cap(wb.b)
			err := readFrame(r, &fr, wb, dirRequest)
			left := b[consumed:]
			if err != nil {
				if len(left) >= 9 {
					n := binary.BigEndian.Uint32(left)
					if n > Op(left[4]).bound(dirRequest) && (!errors.Is(err, errTooLarge) || cap(wb.b) != capBefore) {
						t.Fatalf("length %d over the bound: err %v, buffer %d → %d", n, err, capBefore, cap(wb.b))
					}
					if n < frameHeaderMin && !errors.Is(err, errShortFrame) {
						t.Fatalf("length %d under the header: err %v", n, err)
					}
				}
				if err == io.EOF && len(left) != 0 {
					t.Fatalf("%d trailing bytes read as a clean end", len(left))
				}
				return
			}
			if fr.op == 0 || fr.op >= numOps || fr.status >= numStatus {
				t.Fatalf("accepted op %d status %d", fr.op, fr.status)
			}
			enc := encodeFrame(&fr)
			if !bytes.HasPrefix(left, enc) {
				t.Fatalf("accepted frame is not canonical:\n in: %x\nout: %x", left[:min(len(left), len(enc))], enc)
			}
			consumed += len(enc)
			if conn.begin(fr.stream) == seen[fr.stream] {
				t.Fatalf("stream %d (seen before: %v): the read loop's bookkeeping disagrees", fr.stream, seen[fr.stream])
			}
			seen[fr.stream] = true
		}
	})
}

// TestFrameFieldsRoundTrip: the header fields take their full ranges —
// the widest seq fills the header room exactly — and a frame finished
// twice under two stream IDs differs only in the stream.
func TestFrameFieldsRoundTrip(t *testing.T) {
	want := frame{op: OpReplicaApply, stream: math.MaxUint32, status: statusFailed, seq: math.MaxUint64, body: []byte("x")}
	b := append(startFrame(nil), want.body...)
	enc := finishFrame(b, &want)
	if len(enc) != len(b) {
		t.Errorf("widest header: frame of %d bytes in a buffer of %d", len(enc), len(b))
	}
	var got frame
	if err := readFrame(bufio.NewReader(bytes.NewReader(enc)), &got, &wireBuf{}, dirRequest); err != nil {
		t.Fatal(err)
	}
	if got.op != want.op || got.stream != want.stream || got.status != want.status || got.seq != want.seq || !bytes.Equal(got.body, want.body) {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	first := append([]byte(nil), finishFrame(b, &frame{op: OpQuery, stream: 1})...)
	second := finishFrame(b, &frame{op: OpQuery, stream: 2})
	if len(first) != len(second) || !bytes.Equal(first[9:], second[9:]) || !bytes.Equal(first[:5], second[:5]) {
		t.Errorf("refinished frame: %x then %x", first, second)
	}
}

// TestFrameAnswersDoNotWaitForEachOther: frames on one connection are
// answered as their handlers finish, not in the order they came: while the
// handler of stream 1 is held, stream 2 is answered.
func TestFrameAnswersDoNotWaitForEachOther(t *testing.T) {
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	srv := startFrameServer(t, &frameOps{OpInvalidate: func(_ context.Context, req, resp *frame) {
		if req.stream == 1 {
			<-held
		}
		resp.body = appendInt(resp.body, int(req.stream))
	}})
	t.Cleanup(release) // before the server's shutdown, which waits for the handler
	conn := dialFrames(t, srv.URL)
	conn.send(t, encodeFrame(&frame{op: OpInvalidate, stream: 1}))
	conn.exchange(t, encodeFrame(&frame{op: OpInvalidate, stream: 2}))
	release()
	if f, err := conn.recv(); err != nil || f.stream != 1 {
		t.Errorf("after its handler returned: stream %d, err %v, want stream 1's answer", f.stream, err)
	}
}

// TestFrameWindowHoldsTheNextFrame: with frameWindow handlers of one
// connection held, the next frame is not read — its handler does not run —
// until one of them returns; then it is, and every frame is answered.
func TestFrameWindowHoldsTheNextFrame(t *testing.T) {
	entered := make(chan uint32, frameWindow+1)
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	srv := startFrameServer(t, &frameOps{OpInvalidate: func(_ context.Context, req, resp *frame) {
		entered <- req.stream
		<-held
		resp.body = appendInt(resp.body, 0)
	}})
	t.Cleanup(release)
	conn := dialFrames(t, srv.URL)
	for stream := uint32(1); stream <= frameWindow+1; stream++ {
		conn.send(t, encodeFrame(&frame{op: OpInvalidate, stream: stream}))
	}
	wait := func() uint32 {
		select {
		case stream := <-entered:
			return stream
		case <-time.After(10 * time.Second):
			t.Fatal("a frame inside the window was not handed to a handler")
			return 0
		}
	}
	for i := 0; i < frameWindow; i++ {
		if stream := wait(); stream > frameWindow {
			t.Fatalf("stream %d ran with the window full", stream)
		}
	}
	select {
	case stream := <-entered:
		t.Fatalf("stream %d ran while %d handlers held the window", stream, frameWindow)
	case <-time.After(100 * time.Millisecond):
	}
	held <- struct{}{} // one handler returns
	if stream := wait(); stream != frameWindow+1 {
		t.Fatalf("after a handler returned, stream %d ran, want %d", stream, frameWindow+1)
	}
	release()
	for i := 0; i <= frameWindow; i++ {
		if _, err := conn.recv(); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
}

// BenchmarkFrameRoundTrip is one sealed query → query answer through
// NodeProxy.Query over a framed loopback connection, under the
// DefaultTimeout every deployment sets, to a handler that decodes the
// query and answers a sealed result, which the caller reads in place and
// hands to a Replier that keeps nothing: what one hop of the fleet costs
// before any cache or engine work. Gated in BENCH_allocs.json.
func BenchmarkFrameRoundTrip(b *testing.B) {
	sq, _, sr := sealedAt(b, template.ExpStmt)
	srv := startFrameServer(b, &frameOps{OpQuery: func(_ context.Context, req, resp *frame) {
		if err := (*queryMsg)(&hopSink.sq).decodeWire(req.body); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		resp.body = (&queryAnswer{result: sr, hit: true}).appendWire(resp.body)
	}})
	p := NewNodeProxy(srv.URL, &http.Client{Timeout: DefaultTimeout}, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Query(ctx, sq, &hopSink.drop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeQueryHit is one sealed query frame at stmt exposure through
// a node's own frame handlers (serveBackend over a shard.PipeBackend) to a
// cache that holds its entry, from NodeProxy.Query with a Replier that
// keeps nothing: what a node costs a hit. The query is read in place and
// its parameters are left encoded, which only a miss decodes, so what the
// row counts is the one copy of its head, whose key the cache looks up;
// the answer is appended from the entry straight into the answer frame.
// Gated in BENCH_allocs.json, at the exact count.
func BenchmarkNodeQueryHit(b *testing.B) {
	sq, _, sr := sealedAt(b, template.ExpStmt)
	app := apps.Toystore()
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	node.Cache.Store(sq, sr, false)
	pipe := pipeline.New(node, noHome{}, nil, pipeline.Options{})
	srv := startFrameServer(b, serveBackend(shard.PipeBackend{Pipe: pipe, Buckets: node.Cache}, node.App.IDs()))
	p := NewNodeProxy(srv.URL, &http.Client{Timeout: DefaultTimeout}, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Query(ctx, sq, &hopSink.drop); err != nil || !hopSink.drop.hit {
			b.Fatalf("hit %v, err %v", hopSink.drop.hit, err)
		}
	}
}

// BenchmarkNodeQueryMiss is the fleet's miss: one sealed query frame
// through a node's own frame handlers to a cache that does not hold its
// entry, over the node's framed hop to a home server's frame handlers and
// back, from NodeProxy.Query with a Replier that keeps nothing. Each
// iteration first invalidates the entry, untimed. The node reads the query
// in place and keeps it in its pooled miss, the home runs and seals the
// answer in its scratch and lends it to its answer frame, and the node
// reads that frame in place, so what a miss allocates is the one entry the
// node keeps, at view exposure (the result in the clear) and at stmt
// exposure (sealed). Gated in BENCH_allocs.json, at the exact count.
func BenchmarkNodeQueryMiss(b *testing.B) {
	for _, exp := range []template.Exposure{template.ExpView, template.ExpStmt} {
		b.Run(exp.String(), func(b *testing.B) {
			app := apps.Toystore()
			exps := map[string]template.Exposure{"Q2": exp, "U1": exp}
			codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
			db := storage.NewDatabase(app.Schema)
			if err := db.Insert("toys", storage.Row{sqlparse.IntVal(5), sqlparse.StringVal("kite"), sqlparse.IntVal(25)}); err != nil {
				b.Fatal(err)
			}
			home := startServer(b, HomeHandler(homeserver.New(db, app, codec)))
			node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
			srv := startServer(b, NewNodeServerWithOptions(node, home.URL, &http.Client{Timeout: DefaultTimeout}, NodeOptions{}).Handler())
			p := NewNodeProxy(srv.URL, &http.Client{Timeout: DefaultTimeout}, nil)
			sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
			if err != nil {
				b.Fatal(err)
			}
			su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			miss := func() {
				if err := p.Query(ctx, sq, &hopSink.drop); err != nil || hopSink.drop.hit {
					b.Fatalf("hit %v, err %v; want a miss", hopSink.drop.hit, err)
				}
			}
			miss()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if node.OnUpdateCompleted(su) != 1 {
					b.Fatal("the update did not invalidate Q2(5)")
				}
				b.StartTimer()
				miss()
			}
		})
	}
}

// noHome is the transport of a node whose every query hits.
type noHome struct{}

func (noHome) ExecQuery(_ context.Context, _ wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	done(pipeline.ExecQueryResult{}, errors.New("a hit reached the home"))
}

func (noHome) ExecUpdate(_ context.Context, _ wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	done(pipeline.ExecUpdateResult{}, errors.New("no home"))
}

// BenchmarkNodeUpdate is one sealed update → update answer through
// NodeProxy.Update, the way a client or a router sends one to a node, over
// a framed loopback connection under DefaultTimeout, to a handler that
// reads the update in place as a node's does (wire.ReadSealedUpdate: the
// template ID interned, the parameters and the payload lent from the
// frame) and answers its counts and sequence. Gated in BENCH_allocs.json
// at the exact count: a handler that decodes the update whole again fails
// it.
func BenchmarkNodeUpdate(b *testing.B) {
	_, su, _ := sealedAt(b, template.ExpStmt)
	ids := apps.Toystore().IDs()
	srv := startFrameServer(b, &frameOps{OpUpdate: func(_ context.Context, req, resp *frame) {
		var err error
		if hopSink.su, err = wire.ReadSealedUpdate(req.body, ids); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		resp.seq = 7
		resp.body = (&updateAnswer{affected: 1, invalidated: 2}).appendWire(resp.body)
	}})
	p := NewNodeProxy(srv.URL, &http.Client{Timeout: DefaultTimeout}, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, seq, err := p.Update(ctx, su); err != nil || seq != 7 {
			b.Fatal(seq, err)
		}
	}
}

// BenchmarkExecQueryRoundTrip is a node's miss hop: one sealed query →
// exec query answer through homeTransport.ExecQuery over a framed loopback
// connection under DefaultTimeout, to a handler that reads the query as
// the home server does (readExecQuery: its head, the payload lent) and
// answers a sealed result, which the node reads in place and lends to its
// continuation, here one that keeps nothing: the hop allocates nothing.
// Gated in BENCH_allocs.json.
func BenchmarkExecQueryRoundTrip(b *testing.B) {
	sq, _, sr := sealedAt(b, template.ExpStmt)
	srv := startFrameServer(b, &frameOps{OpExecQuery: func(_ context.Context, req, resp *frame) {
		var err error
		if hopSink.sq, err = readExecQuery(req.body); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		resp.body = (&execQueryMsg{Result: sr}).appendWire(resp.body)
	}})
	t := homeTransport{newHop(&http.Client{Timeout: DefaultTimeout}, srv.URL, nil)}
	ctx := context.Background()
	var err error
	done := func(res pipeline.ExecQueryResult, e error) { hopSink.exec, err = res, e }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.ExecQuery(ctx, sq, done); err != nil {
			b.Fatal(err)
		}
	}
}
