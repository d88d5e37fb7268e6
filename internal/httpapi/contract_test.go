package httpapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// contractServers is one handler of each kind — node, router, home,
// replica — over a seeded toystore, driven directly (no sockets) so the
// refusal contract of every POST endpoint can be checked byte-exactly.
// The node and router forward to a home that is a real listener; nothing
// a refused request does reaches it.
type contractServers struct {
	handlers            map[string]http.Handler
	nodeReg, replicaReg *obs.Registry
	query, update       []byte // well-formed hop bodies
}

func newContractServers(t *testing.T) *contractServers {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedToys(t, db)
	homeHandler := HomeHandler(homeserver.New(db, app, codec))
	homeSrv := httptest.NewServer(homeHandler)
	t.Cleanup(homeSrv.Close)

	analysis := core.Analyze(app, core.DefaultOptions())
	ns := NewNodeServerWithOptions(dssp.NewNode(app, analysis, cache.Options{}), homeSrv.URL, homeSrv.Client(), NodeOptions{})
	nodeSrv := httptest.NewServer(ns.Handler())
	t.Cleanup(nodeSrv.Close)
	rs := NewRouterServer(analysis, []string{nodeSrv.URL}, RouterOptions{Client: nodeSrv.Client()})

	rdb := storage.NewDatabase(app.Schema)
	seedToys(t, rdb)
	rep := home.NewReplica("r", rdb, app, codec)

	sq, su, _ := sealedAt(t, template.ExpStmt)
	return &contractServers{
		handlers: map[string]http.Handler{
			"node": ns.Handler(), "router": rs.Handler(), "home": homeHandler, "replica": ReplicaHandler(rep),
		},
		nodeReg:    ns.Reg,
		replicaReg: rep.Obs(),
		query:      (*queryMsg)(&sq).appendWire(nil),
		update:     (*updateMsg)(&su).appendWire(nil),
	}
}

// serve runs one POST through a handler. length < 0 leaves the body's
// length undeclared (a chunked upload).
func (c *contractServers) serve(server, path, contentType string, body io.Reader, length int64, hdrs http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = length
	req.Header.Set("Content-Type", contentType)
	for k, vs := range hdrs {
		req.Header.Set(k, vs[0]) // Set canonicalizes the key, as the transport would
	}
	rec := httptest.NewRecorder()
	c.handlers[server].ServeHTTP(rec, req)
	return rec
}

// sealedEndpoint is one endpoint that takes a hop message, and whether
// that message is a sealed update (else a sealed query).
type sealedEndpoint struct {
	server, path string
	update       bool
}

var sealedEndpoints = []sealedEndpoint{
	{"node", PathQuery, false}, {"node", PathUpdate, true}, {"node", PathInvalidate, true},
	{"router", PathQuery, false}, {"router", PathUpdate, true},
	{"home", PathExecQuery, false}, {"home", PathExecUpdate, true},
	{"replica", PathExecQuery, false},
}

// TestSealedEndpointsAnswerWellFormedRequests is the control for the
// refusal tests below: the same bodies, properly labelled, are served.
func TestSealedEndpointsAnswerWellFormedRequests(t *testing.T) {
	c := newContractServers(t)
	for _, e := range sealedEndpoints {
		body := c.query
		if e.update {
			body = c.update
		}
		rec := c.serve(e.server, e.path, wireContentType, bytes.NewReader(body), int64(len(body)), nil)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != wireContentType {
			t.Errorf("%s %s: %d %q (%s)", e.server, e.path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
	}
}

// TestSealedEndpointsRefuseOtherContentTypes: one encoding, no fallback.
// A peer that still speaks gob (or anything else) gets 415 before a byte
// of its body is interpreted.
func TestSealedEndpointsRefuseOtherContentTypes(t *testing.T) {
	c := newContractServers(t)
	endpoints := append(sealedEndpoints[:len(sealedEndpoints):len(sealedEndpoints)], sealedEndpoint{"replica", PathReplicaApply, false})
	for _, e := range endpoints {
		for _, ct := range []string{"application/x-gob", "application/octet-stream", ""} {
			rec := c.serve(e.server, e.path, ct, bytes.NewReader(c.query), int64(len(c.query)), nil)
			if rec.Code != http.StatusUnsupportedMediaType {
				t.Errorf("%s %s with Content-Type %q: %d, want 415", e.server, e.path, ct, rec.Code)
			}
		}
	}
}

// zeros is an endless body.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestRequestBodiesAreBounded: every POST endpoint of every server caps
// what it reads — whether the excess is declared in Content-Length or
// only discovered while reading — and answers 413. The two batch
// endpoints have the larger bound: a body between the bounds is read
// (and then refused as malformed, 400), one past it is 413.
func TestRequestBodiesAreBounded(t *testing.T) {
	c := newContractServers(t)
	type endpoint struct {
		server, path, contentType string
		limit                     int64
	}
	var endpoints []endpoint
	for _, e := range sealedEndpoints {
		endpoints = append(endpoints, endpoint{e.server, e.path, wireContentType, maxMessageBytes})
	}
	endpoints = append(endpoints,
		endpoint{"node", PathBucketExport, "application/octet-stream", maxMessageBytes},
		endpoint{"node", PathBucketDrop, "application/octet-stream", maxMessageBytes},
		endpoint{"node", PathBucketImport, "application/octet-stream", maxBatchBytes},
		endpoint{"replica", PathReplicaApply, wireContentType, maxBatchBytes},
	)
	for _, e := range endpoints {
		over := e.limit + 1
		rec := c.serve(e.server, e.path, e.contentType, io.LimitReader(zeros{}, over), over, nil)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s, %d bytes declared: %d, want 413", e.server, e.path, over, rec.Code)
		}
		if e.limit == maxMessageBytes {
			rec = c.serve(e.server, e.path, e.contentType, io.LimitReader(zeros{}, over), -1, nil)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s, %d bytes undeclared: %d, want 413", e.server, e.path, over, rec.Code)
			}
		} else {
			rec = c.serve(e.server, e.path, e.contentType, io.LimitReader(zeros{}, maxMessageBytes+1), -1, nil)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s, %d bytes (within the batch bound): %d, want 400", e.server, e.path, maxMessageBytes+1, rec.Code)
			}
		}
	}
}

func badHeaders(reg *obs.Registry) int64 { return reg.Counter(obs.MHTTPBadHeaders).Value() }

// TestStalenessHeadersFailClosed: a staleness header that is present but
// not a number is a 400 and a counter, on the node's fan-out endpoint
// (where it would otherwise leave the freshness floor unraised) and on
// the replica's query endpoint (where it would otherwise let a lagging
// replica answer below the floor). Absent still means 0.
func TestStalenessHeadersFailClosed(t *testing.T) {
	c := newContractServers(t)
	cases := []struct {
		server, path, header string
		body                 []byte
		reg                  *obs.Registry
	}{
		{"node", PathInvalidate, ConfirmSeqHeader, c.update, c.nodeReg},
		{"replica", PathExecQuery, MinSeqHeader, c.query, c.replicaReg},
	}
	for _, tc := range cases {
		post := func(value string) int {
			var hdrs http.Header
			if value != "" {
				hdrs = http.Header{tc.header: {value}}
			}
			return c.serve(tc.server, tc.path, wireContentType, bytes.NewReader(tc.body), int64(len(tc.body)), hdrs).Code
		}
		if code := post(""); code != http.StatusOK {
			t.Errorf("%s without %s: %d, want 200", tc.path, tc.header, code)
		}
		if code := post("0"); code != http.StatusOK {
			t.Errorf("%s with %s: 0: %d, want 200", tc.path, tc.header, code)
		}
		for i, garbled := range []string{"12x", "-1", "1e3", " ", "18446744073709551616"} {
			if code := post(garbled); code != http.StatusBadRequest {
				t.Errorf("%s with %s: %q: %d, want 400", tc.path, tc.header, garbled, code)
			}
			if got := badHeaders(tc.reg); got != int64(i+1) {
				t.Errorf("%s: bad-header counter %d after %d garbled headers", tc.path, got, i+1)
			}
		}
	}
	// The replica still refuses below a well-formed floor it has not reached.
	rec := c.serve("replica", PathExecQuery, wireContentType, bytes.NewReader(c.query), int64(len(c.query)), http.Header{MinSeqHeader: {"7"}})
	if rec.Code != http.StatusConflict {
		t.Errorf("replica at 0 answered a query with floor 7: %d", rec.Code)
	}
}

// TestReplicaProxyRefusesGarbledWatermark: the node reads the replica's
// applied watermark and partition back from response headers; one that
// does not parse fails the call (the replica set then falls back to the
// primary) instead of reading as 0 or as partition 0.
func TestReplicaProxyRefusesGarbledWatermark(t *testing.T) {
	sq, _, sr := sealedAt(t, template.ExpStmt)
	answer := (&ExecQueryResponse{Result: sr, Scanned: 1}).appendWire(nil)
	var status int
	var hdrs map[string]string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		for k, v := range hdrs {
			w.Header().Set(k, v)
		}
		w.Header().Set("Content-Type", wireContentType)
		w.WriteHeader(status)
		_, _ = w.Write(answer)
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	proxy := newReplicaProxy(srv.Client(), srv.URL, 3, reg)
	call := func(st int, h map[string]string) (pipeline.ExecQueryResult, error) {
		status, hdrs = st, h
		var res pipeline.ExecQueryResult
		var err error
		proxy.QueryAt(context.Background(), sq, 9, func(r pipeline.ExecQueryResult, e error) { res, err = r, e })
		return res, err
	}

	if res, err := call(http.StatusOK, map[string]string{AppliedHeader: "12"}); err != nil || res.Applied != 12 || res.Scanned != 1 {
		t.Errorf("well-formed answer: %+v, %v", res, err)
	}
	var lag *pipeline.LagError
	if _, err := call(http.StatusConflict, map[string]string{AppliedHeader: "4", PartitionHeader: "1"}); !errors.As(err, &lag) || lag.Applied != 4 || lag.Part != 1 || lag.Want != 9 {
		t.Errorf("well-formed refusal: %v", err)
	}
	if _, err := call(http.StatusConflict, map[string]string{AppliedHeader: "4"}); !errors.As(err, &lag) || lag.Part != 3 {
		t.Errorf("refusal without a partition header: %v, want the configured partition", err)
	}
	if got := badHeaders(reg); got != 0 {
		t.Fatalf("bad-header counter %d before any garbled header", got)
	}
	garbled := []struct {
		status int
		hdrs   map[string]string
	}{
		{http.StatusOK, map[string]string{AppliedHeader: "twelve"}},
		{http.StatusConflict, map[string]string{AppliedHeader: "4x", PartitionHeader: "1"}},
		{http.StatusConflict, map[string]string{AppliedHeader: "4", PartitionHeader: "one"}},
		{http.StatusConflict, map[string]string{AppliedHeader: "4", PartitionHeader: "-1"}},
	}
	for i, g := range garbled {
		_, err := call(g.status, g.hdrs)
		if err == nil || errors.As(err, &lag) {
			t.Errorf("%d %v: err %v, want a plain error", g.status, g.hdrs, err)
		}
		if got := badHeaders(reg); got != int64(i+1) {
			t.Errorf("bad-header counter %d after %d garbled headers", got, i+1)
		}
	}
}

// TestFitApplyBatch: the hub never builds an apply body the replica's
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
	if n := len((&ReplicaApplyRequest{Batch: fit}).appendWire(nil)); n > maxBatchBytes {
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
