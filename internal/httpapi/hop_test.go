package httpapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// These tests pin what hop.send owns now that no http.Client.Do stands
// between a hop and the transport: the deadline, the refusal to follow a
// redirect, the one idempotent retry, the request's framing and the reuse
// of its connection.

// answerServer answers every POST with a well-formed QueryResponse — or,
// for a request to an update path, an UpdateResponse — and counts the
// connections it accepts.
func answerServer(t *testing.T) (srv *httptest.Server, conns *atomic.Int64) {
	t.Helper()
	_, _, sr := sealedAt(t, template.ExpStmt)
	conns = new(atomic.Int64)
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Error(err)
		}
		switch r.URL.Path {
		case PathUpdate:
			writeMessage(nil, w, &UpdateResponse{Affected: 1})
		case PathInvalidate:
			writeMessage(nil, w, &InvalidateResponse{Invalidated: 1})
		default:
			writeMessage(nil, w, &QueryResponse{Result: sr, Hit: true})
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, conns
}

// hungServer accepts requests and never answers them until the test ends.
func hungServer(t *testing.T) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	return srv
}

func TestHopTimesOutOnHungPeer(t *testing.T) {
	srv := hungServer(t)
	_, su, _ := sealedAt(t, template.ExpStmt)
	const timeout = 150 * time.Millisecond
	h := newHop(&http.Client{Timeout: timeout, Transport: srv.Client().Transport}, srv.URL+PathUpdate, wireContentTypeValue)

	start := time.Now()
	err := h.post(context.Background(), "", "", (*updateMsg)(&su), new(UpdateResponse), false, nil)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took < timeout || took > 20*timeout {
		t.Errorf("hung peer under a %v client timeout: err %v after %v", timeout, err, took)
	}
}

func TestHopCallerDeadlineWinsWhenEarlier(t *testing.T) {
	srv := hungServer(t)
	_, su, _ := sealedAt(t, template.ExpStmt)
	h := newHop(&http.Client{Timeout: DefaultTimeout, Transport: srv.Client().Transport}, srv.URL+PathUpdate, wireContentTypeValue)

	const deadline = 150 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := h.post(ctx, "", "", (*updateMsg)(&su), new(UpdateResponse), false, nil)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 20*deadline {
		t.Errorf("caller deadline of %v under a %v client timeout: err %v after %v", deadline, DefaultTimeout, err, took)
	}
}

// contextRecorder is a transport wrapper that keeps each request's context.
type contextRecorder struct {
	inner http.RoundTripper
	ctxs  []context.Context
}

func (c *contextRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	c.ctxs = append(c.ctxs, req.Context())
	return c.inner.RoundTrip(req)
}

// TestHopDeadlineIsReleasedWithTheBody: the timeout's timer must not live on
// for thirty seconds after every round trip — closing the response body
// cancels the context it was armed on. A caller's own earlier deadline is
// used as it is, with nothing to release.
func TestHopDeadlineIsReleasedWithTheBody(t *testing.T) {
	srv, _ := answerServer(t)
	sq, _, _ := sealedAt(t, template.ExpStmt)
	rec := &contextRecorder{inner: srv.Client().Transport}
	h := newHop(&http.Client{Timeout: DefaultTimeout, Transport: rec}, srv.URL+PathQuery, wireContentTypeValue)

	if err := h.post(context.Background(), "", "", (*queryMsg)(&sq), new(QueryResponse), true, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := h.post(ctx, "", "", (*queryMsg)(&sq), new(QueryResponse), true, nil); err != nil {
		t.Fatal(err)
	}
	if len(rec.ctxs) != 2 {
		t.Fatalf("%d round trips, want 2", len(rec.ctxs))
	}
	if d, ok := rec.ctxs[0].Deadline(); !ok || time.Until(d) > DefaultTimeout {
		t.Errorf("round trip under a background context: deadline %v (set %v), want the client's timeout", d, ok)
	}
	if !errors.Is(rec.ctxs[0].Err(), context.Canceled) {
		t.Errorf("the hop's deadline context after the body was closed: %v, want canceled", rec.ctxs[0].Err())
	}
	if rec.ctxs[1] != ctx {
		t.Error("a caller's earlier deadline was wrapped in a second one")
	}
}

func TestHopDoesNotFollowRedirects(t *testing.T) {
	var elsewhere atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { elsewhere.Add(1) }))
	defer target.Close()
	var asked atomic.Int64
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		http.Redirect(w, r, target.URL+PathQuery, http.StatusTemporaryRedirect)
	}))
	defer evil.Close()

	codec := wire.NewCodec(apps.Toystore(), encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	client := NewClient(codec, evil.URL, evil.Client())
	_, err := client.Query(context.Background(), apps.Toystore().Query("Q2"), 5)
	if err == nil || !strings.Contains(err.Error(), "307") {
		t.Errorf("a 307 from the peer: err %v, want an error naming the status", err)
	}
	if _, _, err := client.Update(context.Background(), apps.Toystore().Update("U1"), 5); err == nil {
		t.Error("a 307 answered an update without an error")
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("the sealed body was re-sent to the redirect's target %d times", n)
	}
	if n := asked.Load(); n != 2 {
		t.Errorf("the redirecting peer was asked %d times, want once per statement (a response is never retried)", n)
	}
}

// flakyTransport fails its first failures round trips with a connection
// error and answers the rest itself, recording every request it was given.
type flakyTransport struct {
	failures int

	mu     sync.Mutex
	bodies [][]byte
	reqs   []*http.Request
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bodies = append(f.bodies, body)
	f.reqs = append(f.reqs, req)
	if len(f.bodies) <= f.failures {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
	}
	var answer message = &QueryResponse{Hit: true}
	switch req.URL.Path {
	case PathUpdate:
		answer = &UpdateResponse{Affected: 1}
	case PathInvalidate:
		answer = &InvalidateResponse{Invalidated: 1}
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Header: http.Header{"Content-Type": wireContentTypeValue},
		Body:   io.NopCloser(bytes.NewReader(answer.appendWire(nil))), Request: req,
	}, nil
}

// TestHopRetriesIdempotentCallsOnce: queries and invalidations are resent
// once after a connection error, with the bytes of the first attempt, and
// counted; an update is never resent; and a second failure is the error.
func TestHopRetriesIdempotentCallsOnce(t *testing.T) {
	sq, su, _ := sealedAt(t, template.ExpStmt)
	retries := func(reg *obs.Registry) int64 { return reg.Counter(obs.MHTTPRetries).Value() }
	proxy := func(failures int) (NodeProxy, *flakyTransport, *obs.Registry) {
		ft, reg := &flakyTransport{failures: failures}, obs.NewRegistry()
		return NewNodeProxy("http://node.invalid", &http.Client{Transport: ft}, reg), ft, reg
	}

	p, ft, reg := proxy(1)
	if _, hit, err := p.Query(context.Background(), sq); err != nil || !hit {
		t.Errorf("query after one connection error: hit %v, err %v", hit, err)
	}
	if len(ft.bodies) != 2 || !bytes.Equal(ft.bodies[0], ft.bodies[1]) || len(ft.bodies[0]) == 0 || retries(reg) != 1 {
		t.Errorf("query: %d attempts (retries counted: %d), bodies equal: %v", len(ft.bodies), retries(reg), len(ft.bodies) == 2 && bytes.Equal(ft.bodies[0], ft.bodies[1]))
	}

	p, ft, reg = proxy(1)
	if n, err := p.Invalidate(context.Background(), su, 7); err != nil || n != 1 {
		t.Errorf("invalidation after one connection error: %d, err %v", n, err)
	}
	if len(ft.bodies) != 2 || !bytes.Equal(ft.bodies[0], ft.bodies[1]) || retries(reg) != 1 {
		t.Errorf("invalidation: %d attempts (retries counted: %d)", len(ft.bodies), retries(reg))
	}
	for i, req := range ft.reqs {
		if got := req.Header[ConfirmSeqHeader]; len(got) != 1 || got[0] != "7" {
			t.Errorf("invalidation attempt %d: %s = %v, want 7", i, ConfirmSeqHeader, got)
		}
	}

	p, ft, reg = proxy(1)
	if _, _, _, err := p.Update(context.Background(), su); err == nil {
		t.Error("update after a connection error: no error")
	}
	if len(ft.bodies) != 1 || retries(reg) != 0 {
		t.Errorf("update: %d attempts (retries counted: %d), want 1 and 0", len(ft.bodies), retries(reg))
	}

	p, ft, _ = proxy(2)
	if _, _, err := p.Query(context.Background(), sq); err == nil {
		t.Error("query after two connection errors: no error")
	}
	if len(ft.bodies) != 2 {
		t.Errorf("query against a dead peer: %d attempts, want 2", len(ft.bodies))
	}

	// The trusted client decides the same way.
	ft = &flakyTransport{failures: 1}
	codec := wire.NewCodec(apps.Toystore(), encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	client := NewClient(codec, "http://node.invalid", &http.Client{Transport: ft})
	client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock())
	if _, _, err := client.Update(context.Background(), apps.Toystore().Update("U1"), 5); err == nil || len(ft.bodies) != 1 {
		t.Errorf("client update after a connection error: err %v, %d attempts", err, len(ft.bodies))
	}
	if retries(client.Tracer.Registry()) != 0 {
		t.Error("client update counted a retry")
	}
}

// TestHopRequestShape: what the builder assembles by hand is what
// http.NewRequest would have: method, URL, Host, the body's length declared
// (a wrapper transport reads it; without it the transport would send the
// body chunked), a body that can be read again, the Content-Type — and
// nothing else in the header.
func TestHopRequestShape(t *testing.T) {
	sq, _, _ := sealedAt(t, template.ExpStmt)
	ft := &flakyTransport{}
	h := newHop(&http.Client{Transport: ft}, "http://node.invalid:8410/base"+PathQuery, wireContentTypeValue)
	if err := h.post(context.Background(), "", "", (*queryMsg)(&sq), new(QueryResponse), true, nil); err != nil {
		t.Fatal(err)
	}
	req, body := ft.reqs[0], ft.bodies[0]
	want := (*queryMsg)(&sq).appendWire(nil)
	if !bytes.Equal(body, want) {
		t.Errorf("body %x, want %x", body, want)
	}
	if req.ContentLength != int64(len(want)) {
		t.Errorf("ContentLength %d, want %d", req.ContentLength, len(want))
	}
	if req.Method != http.MethodPost || req.URL.String() != "http://node.invalid:8410/base"+PathQuery || req.Host != "node.invalid:8410" {
		t.Errorf("request line: %s %s (Host %q)", req.Method, req.URL, req.Host)
	}
	if len(req.Header) != 1 || req.Header.Get("Content-Type") != wireContentType {
		t.Errorf("header %v, want the Content-Type alone", req.Header)
	}
	again, err := req.GetBody()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := io.ReadAll(again); !bytes.Equal(b, want) {
		t.Errorf("GetBody yields %x, want %x", b, want)
	}
}

func TestHopReportsUnparsableURL(t *testing.T) {
	sq, _, _ := sealedAt(t, template.ExpStmt)
	h := newHop(nil, "http://node\x7f.invalid"+PathQuery, wireContentTypeValue)
	if err := h.post(context.Background(), "", "", (*queryMsg)(&sq), new(QueryResponse), true, nil); err == nil {
		t.Error("a URL that does not parse carried a hop")
	}
}

// TestSequentialHopsShareOneConnection: every response body is read to its
// end and closed, so the transport can put the connection back — twenty
// hops in a row, staleness-header ones included, dial once.
func TestSequentialHopsShareOneConnection(t *testing.T) {
	srv, conns := answerServer(t)
	sq, su, _ := sealedAt(t, template.ExpStmt)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	p := NewNodeProxy(srv.URL, &http.Client{Timeout: DefaultTimeout, Transport: tr}, nil)
	for i := 0; i < 20; i++ {
		if _, _, err := p.Query(context.Background(), sq); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := p.Update(context.Background(), su); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invalidate(context.Background(), su, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("60 sequential hops opened %d connections, want 1", n)
	}
}

// TestHopWithoutTransportUsesDefault: an http.Client with a nil Transport
// means http.DefaultTransport, as it does to Client.Do.
func TestHopWithoutTransportUsesDefault(t *testing.T) {
	srv, _ := answerServer(t)
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	sq, _, _ := sealedAt(t, template.ExpStmt)
	for _, client := range []*http.Client{nil, {}} {
		var resp QueryResponse
		h := newHop(client, srv.URL+PathQuery, wireContentTypeValue)
		if err := h.post(context.Background(), "", "", (*queryMsg)(&sq), &resp, true, nil); err != nil || !resp.Hit {
			t.Errorf("client %+v: hit %v, err %v", client, resp.Hit, err)
		}
	}
}
