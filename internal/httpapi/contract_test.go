package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// contractServers is one server of each kind — node, router, home,
// replica — over a seeded toystore, each behind its own listener, so the
// refusal contract of every statement op can be checked frame by frame on
// raw connections. The node and router forward to the real home and node;
// nothing a refused frame does reaches them.
type contractServers struct {
	urls                map[string]string
	nodeReg, replicaReg *obs.Registry
	query, update       []byte // well-formed envelopes
}

func newContractServers(t *testing.T) *contractServers {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedToys(t, db)
	homeSrv := startServer(t, HomeHandler(homeserver.New(db, app, codec)))

	analysis := core.Analyze(app, core.DefaultOptions())
	ns := NewNodeServerWithOptions(dssp.NewNode(app, analysis, cache.Options{}), homeSrv.URL, nil, NodeOptions{})
	nodeSrv := startServer(t, ns.Handler())
	routerSrv := startServer(t, NewRouterServer(analysis, []string{nodeSrv.URL}, RouterOptions{}).Handler())

	rdb := storage.NewDatabase(app.Schema)
	seedToys(t, rdb)
	rep := home.NewReplica("r", rdb, app, codec)
	replicaSrv := startServer(t, ReplicaHandler(rep))

	sq, su, _ := sealedAt(t, template.ExpStmt)
	return &contractServers{
		urls: map[string]string{
			"node": nodeSrv.URL, "router": routerSrv.URL, "home": homeSrv.URL, "replica": replicaSrv.URL,
		},
		nodeReg:    ns.Reg,
		replicaReg: rep.Obs(),
		query:      (*queryMsg)(&sq).appendWire(nil),
		update:     (*updateMsg)(&su).appendWire(nil),
	}
}

// sealedOp is one statement op a server serves, and whether its request
// is a sealed update (else a sealed query).
type sealedOp struct {
	server string
	op     Op
	update bool
}

var sealedOps = []sealedOp{
	{"node", OpQuery, false}, {"node", OpUpdate, true}, {"node", OpInvalidate, true},
	{"router", OpQuery, false}, {"router", OpUpdate, true},
	{"home", OpExecQuery, false}, {"home", OpExecUpdate, true},
	{"replica", OpExecQuery, false},
}

// TestSealedEndpointsAnswerWellFormedRequests is the control for the
// refusal tests below: well-formed frames of every op every server serves
// are answered ok, with the answer's envelope — and an update's answer,
// at the node, the router and the home, with the update's confirmed
// sequence in seq, one past the last.
func TestSealedEndpointsAnswerWellFormedRequests(t *testing.T) {
	c := newContractServers(t)
	confirmed := uint64(0)
	for _, e := range sealedOps {
		body := c.query
		if e.update {
			body = c.update
		}
		f := dialFrames(t, c.urls[e.server]).exchange(t, encodeFrame(&frame{op: e.op, stream: 1, body: body}))
		if f.status != statusOK {
			t.Errorf("%s %v: %v (%s)", e.server, e.op, f.status, f.body)
			continue
		}
		if err := envelope(e.op, dirAnswer).decodeWire(f.body); err != nil {
			t.Errorf("%s %v: answer does not decode: %v", e.server, e.op, err)
		}
		if e.op == OpUpdate || e.op == OpExecUpdate {
			if confirmed++; f.seq != confirmed {
				t.Errorf("%s %v: answered with seq %d, want the confirmed sequence %d", e.server, e.op, f.seq, confirmed)
			}
		}
	}
}

// TestFramesRefuseAPlainRequest: one protocol, no fallback. A request for
// PathFrames that neither asks for the upgrade nor POSTs a frame is 426,
// naming the protocol to upgrade to; a POST whose body is not one frame is
// 400; and the statement routes of the HTTP data plane are gone: a peer
// that still POSTs statements fails loudly.
func TestFramesRefuseAPlainRequest(t *testing.T) {
	c := newContractServers(t)
	for server, base := range c.urls {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			r, err := http.NewRequest(method, base+PathFrames, strings.NewReader(string(c.query)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(r)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != frameProtocol {
				t.Errorf("%s: %s %s without the upgrade: %s (Upgrade: %q), want 426 naming %s",
					server, method, PathFrames, resp.Status, resp.Header.Get("Upgrade"), frameProtocol)
			}
		}
		for _, body := range []string{"", "x", "not a frame", string(c.query)} {
			resp, err := http.Post(base+PathFrames, "application/octet-stream", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: POST %s of %q: %s, want 400", server, PathFrames, body, resp.Status)
			}
		}
		for _, path := range []string{"/v1/query", "/v1/update", "/v1/invalidate", "/v1/exec/query", "/v1/exec/update", "/v1/replica/apply"} {
			resp, err := http.Post(base+path, "application/x-dssp-wire", strings.NewReader(string(c.query)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: POST %s answered %s, want 404", server, path, resp.Status)
			}
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// TestRequestBodiesAreBounded: every op of every server refuses a request
// frame declaring more than its bound — answered too large on its stream,
// before a byte of the body is sent, and the connection closes. A bucket
// export or drop is bounded like a statement, at maxMessageBytes; a replica
// apply or bucket import frame between the two bounds is read (and then
// refused as malformed).
func TestRequestBodiesAreBounded(t *testing.T) {
	c := newContractServers(t)
	ops := append(sealedOps[:len(sealedOps):len(sealedOps)], sealedOp{"replica", OpReplicaApply, false},
		sealedOp{"node", OpBucketExport, false}, sealedOp{"node", OpBucketImport, false}, sealedOp{"node", OpBucketDrop, false})
	for _, e := range ops {
		bound := e.op.bound(dirRequest)
		conn := dialFrames(t, c.urls[e.server])
		b := append(uvarint32(bound+1), byte(e.op), 0, 0, 0, 9)
		f := conn.exchange(t, b)
		if f.status != statusTooLarge {
			t.Errorf("%s %v, %d bytes declared: %v, want too large", e.server, e.op, bound+1, f.status)
		}
		if _, err := conn.recv(); err == nil {
			t.Errorf("%s %v: the connection still frames after an oversized one", e.server, e.op)
		}
		if f := postFrame(t, c.urls[e.server], b); f.status != statusTooLarge {
			t.Errorf("%s %v, %d bytes declared in a POST: %v, want too large", e.server, e.op, bound+1, f.status)
		}
	}
	for _, op := range []Op{OpBucketExport, OpBucketDrop} {
		if got := op.bound(dirRequest); got != maxMessageBytes+frameHeaderMax {
			t.Errorf("%v request bound %d, want the statement bound %d", op, got, maxMessageBytes+frameHeaderMax)
		}
	}
	for _, e := range []sealedOp{{"replica", OpReplicaApply, false}, {"node", OpBucketImport, false}} {
		between := rawFrame(e.op, 1, statusOK, []byte{0}, make([]byte, maxMessageBytes+1))
		if f := dialFrames(t, c.urls[e.server]).exchange(t, between); f.status != statusBadRequest {
			t.Errorf("%s %v, %d bytes (within the batch bound): %v, want bad request", e.server, e.op, maxMessageBytes+1, f.status)
		}
	}
}

// postFrame POSTs b to base's PathFrames and reads the answer frame, which
// must be on the op and stream b declares.
func postFrame(t *testing.T, base string, b []byte) frame {
	t.Helper()
	resp, err := http.Post(base+PathFrames, "application/octet-stream", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST of a frame: %s", resp.Status)
	}
	var f frame
	if err := readFrame(bufio.NewReader(resp.Body), &f, &wireBuf{}, dirAnswer); err != nil {
		t.Fatal(err)
	}
	if sent := binary.BigEndian.Uint32(b[5:]); f.stream != sent || f.op != Op(b[4]) {
		t.Fatalf("POSTed %v on stream %d, answered %v on %d", Op(b[4]), sent, f.op, f.stream)
	}
	return f
}

func uvarint32(v uint32) []byte { return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)} }

func badFrames(reg *obs.Registry) int64 { return reg.Counter(obs.MHTTPBadFrames).Value() }

// garbledUvarints are staleness fields that are not one minimal uvarint,
// whatever follows them: padded, and overflowing.
var garbledUvarints = [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}, bytes.Repeat([]byte{0xff}, 10)}

// TestStalenessHeadersFailClosed: a staleness field in a frame header
// that is not a minimal uvarint is answered bad request and counted, on
// the node's fan-out op (where it would otherwise leave the freshness
// floor unraised) and on the replica's query op (where it would otherwise
// let a lagging replica answer below the floor) — never read as 0, and
// the connection goes on framing. A well-formed floor the replica has not
// reached is a lag frame with its watermark.
func TestStalenessHeadersFailClosed(t *testing.T) {
	c := newContractServers(t)
	cases := []struct {
		server string
		op     Op
		body   []byte
		reg    *obs.Registry
	}{
		{"node", OpInvalidate, c.update, c.nodeReg},
		{"replica", OpExecQuery, c.query, c.replicaReg},
	}
	for _, tc := range cases {
		conn := dialFrames(t, c.urls[tc.server])
		stream := uint32(0)
		send := func(seq []byte) status {
			stream++
			f := conn.exchange(t, rawFrame(tc.op, stream, statusOK, seq, tc.body))
			return f.status
		}
		if st := send([]byte{0}); st != statusOK {
			t.Errorf("%s %v with seq 0: %v, want ok", tc.server, tc.op, st)
		}
		for i, garbled := range garbledUvarints {
			if st := send(garbled); st != statusBadRequest {
				t.Errorf("%s %v with seq %x: %v, want bad request", tc.server, tc.op, garbled, st)
			}
			if got := badFrames(tc.reg); got != int64(i+1) {
				t.Errorf("%s: bad-frame counter %d after %d garbled fields", tc.server, got, i+1)
			}
		}
	}
	// The replica still refuses below a well-formed floor it has not reached.
	f := dialFrames(t, c.urls["replica"]).exchange(t, encodeFrame(&frame{op: OpExecQuery, stream: 1, seq: 7, body: c.query}))
	if f.status != statusLag || f.seq != 0 {
		t.Errorf("replica at 0 answered a query with floor 7: %v, seq %d; want a lag frame at 0", f.status, f.seq)
	}
}

// TestGarbledFramesAreRefused: a frame that carries a status, one for an
// op the server does not serve, and one whose envelope does not decode
// under its own op — another op's request, or none — are each answered bad
// request, and the connection goes on framing; a
// frame naming no op (there is none to answer under), one shorter than
// its header, and one reusing a stream ID still in flight — whose answer
// would reach the wrong call — end the connection without an answer.
func TestGarbledFramesAreRefused(t *testing.T) {
	c := newContractServers(t)
	conn := dialFrames(t, c.urls["node"])
	for i, b := range [][]byte{
		rawFrame(OpQuery, 1, statusBadGateway, []byte{0}, c.query),
		encodeFrame(&frame{op: OpExecUpdate, stream: 2, body: c.update}),
		encodeFrame(&frame{op: OpQuery, stream: 3, body: c.update}),
		encodeFrame(&frame{op: OpInvalidate, stream: 4, body: c.query}),
		encodeFrame(&frame{op: OpQuery, stream: 5}),
	} {
		if f := conn.exchange(t, b); f.status != statusBadRequest {
			t.Errorf("garbled frame %d: %v (%s), want bad request", i, f.status, f.body)
		}
	}
	if f := conn.exchange(t, encodeFrame(&frame{op: OpQuery, stream: 6, body: c.query})); f.status != statusOK {
		t.Errorf("a well-formed frame after the garbled ones: %v (%s)", f.status, f.body)
	}
	// A POST carries one frame: bytes after it are a malformed request.
	query := encodeFrame(&frame{op: OpQuery, stream: 1, body: c.query})
	if f := postFrame(t, c.urls["node"], append(query, 0)); f.status != statusBadRequest {
		t.Errorf("a POSTed frame with a byte after it: %v (%s), want bad request", f.status, f.body)
	}
	if f := postFrame(t, c.urls["node"], query); f.status != statusOK {
		t.Errorf("a POSTed frame: %v (%s)", f.status, f.body)
	}

	for i, b := range [][]byte{
		rawFrame(0, 1, statusOK, []byte{0}, c.query),
		rawFrame(numOps, 1, statusOK, []byte{0}, c.query),
		append(uvarint32(3), byte(OpQuery), 0, 0, 0, 1),
	} {
		ended := dialFrames(t, c.urls["node"])
		ended.send(t, b)
		if f, err := ended.recv(); err == nil {
			t.Errorf("unanswerable frame %d was answered: %v", i, f.status)
		}
	}

	var entered atomic.Int64
	release := make(chan struct{})
	srv := startFrameServer(t, &frameOps{OpQuery: func(ctx context.Context, _, resp *frame) {
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		resp.body = (&queryAnswer{}).appendWire(resp.body)
	}})
	defer close(release)
	dup := dialFrames(t, srv.URL)
	q := encodeFrame(&frame{op: OpQuery, stream: 9, body: c.query})
	dup.send(t, append(append([]byte(nil), q...), q...))
	answers := 0
	for {
		if _, err := dup.recv(); err != nil {
			break
		}
		answers++
	}
	if answers > 1 || entered.Load() != 1 {
		t.Errorf("a stream ID sent twice: %d answers, %d handlers run; want at most the first's, then the connection closed", answers, entered.Load())
	}
}

// TestReplicaProxyRefusesGarbledWatermark: the node reads the replica's
// applied watermark back from the answer's header; one that does not parse
// fails the call (the replica set then falls back to the primary) instead
// of reading as 0, and is counted.
func TestReplicaProxyRefusesGarbledWatermark(t *testing.T) {
	sq, _, sr := sealedAt(t, template.ExpStmt)
	answer := (&execQueryMsg{Result: sr}).appendWire(nil)
	var next atomic.Pointer[func(stream uint32) []byte]
	peer := newFakePeer(t, func(req *frame) []byte { return (*next.Load())(req.stream) })
	reg := obs.NewRegistry()
	proxy := newReplicaProxy(nil, peer.url, reg)
	call := func(script func(stream uint32) []byte) (pipeline.ExecQueryResult, error) {
		next.Store(&script)
		var res pipeline.ExecQueryResult
		var err error
		proxy.QueryAt(context.Background(), sq, 9, func(r pipeline.ExecQueryResult, e error) { res, err = r, e })
		return res, err
	}

	if res, err := call(func(s uint32) []byte { return rawFrame(OpExecQuery, s, statusOK, uvarint(12), answer) }); err != nil || res.Applied != 12 || res.Result.Size() != sr.Size() {
		t.Errorf("well-formed answer: %+v, %v", res, err)
	}
	var lag *pipeline.LagError
	if _, err := call(func(s uint32) []byte { return rawFrame(OpExecQuery, s, statusLag, uvarint(4), nil) }); !errors.As(err, &lag) || lag.Applied != 4 {
		t.Errorf("well-formed refusal: %v", err)
	}
	if got := badFrames(reg); got != 0 {
		t.Fatalf("bad-frame counter %d before any garbled field", got)
	}
	for i, garbled := range garbledUvarints {
		for _, st := range []status{statusOK, statusLag} {
			before := badFrames(reg)
			_, err := call(func(s uint32) []byte { return rawFrame(OpExecQuery, s, st, garbled, answer) })
			if err == nil || errors.As(err, &lag) {
				t.Errorf("garbled field %d, %v seq %x: err %v, want a plain error", i, st, garbled, err)
			}
			if badFrames(reg) != before+1 {
				t.Errorf("garbled field %d, %v seq %x: not counted", i, st, garbled)
			}
		}
	}
}

// TestFitApplyBatch: the hub never builds an apply frame the replica's
// bound would refuse. Ten updates of a quarter of the bound each go out
// three at a time; a single update over the bound still goes out alone.
func TestFitApplyBatch(t *testing.T) {
	opaque := make([]byte, maxBatchBytes/4)
	batch := make([]homeserver.Confirmed, 10)
	for i := range batch {
		batch[i] = homeserver.Confirmed{Seq: uint64(i + 1), Update: wire.SealedUpdate{TemplateID: "u" + strconv.Itoa(i), Opaque: opaque}}
	}
	fit := fitApplyBatch(batch)
	if len(fit) != 3 {
		t.Fatalf("fit %d updates of %d bytes into a %d-byte body, want 3", len(fit), len(opaque), maxBatchBytes)
	}
	if n := len((*applyMsg)(&fit).appendWire(nil)); n > maxBatchBytes {
		t.Errorf("fitted batch encodes to %d bytes, over the %d-byte bound", n, maxBatchBytes)
	}
	if small := batch[:2]; len(fitApplyBatch(small)) != 2 {
		t.Error("a batch within the bound was trimmed")
	}
	huge := []homeserver.Confirmed{{Seq: 1, Update: wire.SealedUpdate{Opaque: make([]byte, maxBatchBytes+1)}}, batch[0]}
	if len(fitApplyBatch(huge)) != 1 {
		t.Error("an oversized update must go out alone")
	}
}
