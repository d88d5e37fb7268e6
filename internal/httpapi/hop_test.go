package httpapi

import (
	"bufio"
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

// These tests pin what a hop owns now that statements ride frames on a
// connection it dials itself: the deadline, the refusal to follow a
// redirect, the one idempotent retry, the shape of the upgrade and of a
// frame, and the one connection every call shares.

// call is takeCall, send and release in one, over message envelopes: it
// sends req under op and seq, decodes the answer into resp and returns its
// seq.
func (h *hop) call(ctx context.Context, op Op, seq uint64, req, resp message) (uint64, error) {
	k := takeCall()
	defer k.release()
	k.out = req.appendWire(k.out)
	body, answered, err := h.send(ctx, k, op, seq)
	if err != nil {
		return 0, err
	}
	return answered, h.decoded(resp.decodeWire(body))
}

// fakePeer is a scripted frame peer on a loopback listener: it upgrades
// every connection, records the upgrade requests and every request frame,
// and answers each frame on its own goroutine with what answer returns —
// the bytes of a response, or nil to drop the connection unanswered.
type fakePeer struct {
	url    string
	answer func(req *frame) []byte

	mu       sync.Mutex
	conns    int
	upgrades []*http.Request
	reqs     []frame // bodies copied
}

func newFakePeer(t *testing.T, answer func(req *frame) []byte) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{url: "http://" + ln.Addr().String(), answer: answer}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		open []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			open = append(open, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.serve(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range open {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return p
}

func (p *fakePeer) serve(nc net.Conn) {
	defer nc.Close()
	r := bufio.NewReader(nc)
	up, err := http.ReadRequest(r)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.conns++
	p.upgrades = append(p.upgrades, up)
	p.mu.Unlock()
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+frameProtocol+"\r\n\r\n"); err != nil {
		return
	}
	var wmu sync.Mutex
	for {
		var req frame
		if err := readFrame(r, &req, &wireBuf{}, dirRequest); err != nil {
			return
		}
		p.mu.Lock()
		p.reqs = append(p.reqs, req)
		p.mu.Unlock()
		go func() {
			resp := p.answer(&req)
			if resp == nil {
				nc.Close()
				return
			}
			wmu.Lock()
			defer wmu.Unlock()
			_, _ = nc.Write(resp)
		}()
	}
}

func (p *fakePeer) requests() []frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]frame(nil), p.reqs...)
}

func (p *fakePeer) connections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

// answerFor is a well-formed answer to req: a query answer carrying sr,
// or an update's or an invalidation's answer by op.
func answerFor(req *frame, sr wire.SealedResult) []byte {
	var body []byte
	switch req.op {
	case OpUpdate:
		body = (&updateAnswer{affected: 1}).appendWire(nil)
	case OpInvalidate:
		body = appendInt(nil, 1)
	default:
		body = (&queryAnswer{result: sr, hit: true}).appendWire(nil)
	}
	return encodeFrame(&frame{op: req.op, stream: req.stream, body: body})
}

// answerPeer answers every frame well, at once.
func answerPeer(t *testing.T) *fakePeer {
	_, _, sr := sealedAt(t, template.ExpStmt)
	return newFakePeer(t, func(req *frame) []byte { return answerFor(req, sr) })
}

// hungPeer reads every frame and never answers until the test ends.
func hungPeer(t *testing.T) *fakePeer {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // after the peer's own cleanup
	return newFakePeer(t, func(*frame) []byte { <-release; return nil })
}

func TestHopTimesOutOnHungPeer(t *testing.T) {
	peer := hungPeer(t)
	_, su, _ := sealedAt(t, template.ExpStmt)
	const timeout = 150 * time.Millisecond
	h := newHop(&http.Client{Timeout: timeout}, peer.url, nil)

	start := time.Now()
	_, err := h.call(context.Background(), OpUpdate, 0, (*updateMsg)(&su), new(updateAnswer))
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took < timeout || took > 20*timeout {
		t.Errorf("hung peer under a %v client timeout: err %v after %v", timeout, err, took)
	}
}

func TestHopCallerDeadlineWinsWhenEarlier(t *testing.T) {
	peer := hungPeer(t)
	_, su, _ := sealedAt(t, template.ExpStmt)
	h := newHop(&http.Client{Timeout: DefaultTimeout}, peer.url, nil)

	const deadline = 150 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := h.call(ctx, OpUpdate, 0, (*updateMsg)(&su), new(updateAnswer))
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 20*deadline {
		t.Errorf("caller deadline of %v under a %v client timeout: err %v after %v", deadline, DefaultTimeout, err, took)
	}
}

// TestHopDeadlineIsReleasedWithTheAnswer: a call's timer is stopped when
// its answer arrives, and the stopped timer — pooled with the call — never
// expires a later one: under a 100 ms timeout, a call, a pause past the
// timeout and a call whose answer takes most of the timeout both succeed,
// and so does one under a caller's own earlier deadline.
func TestHopDeadlineIsReleasedWithTheAnswer(t *testing.T) {
	_, _, sr := sealedAt(t, template.ExpStmt)
	var delay atomic.Int64
	peer := newFakePeer(t, func(req *frame) []byte {
		time.Sleep(time.Duration(delay.Load()))
		return answerFor(req, sr)
	})
	sq, _, _ := sealedAt(t, template.ExpStmt)
	const timeout = 100 * time.Millisecond
	h := newHop(&http.Client{Timeout: timeout}, peer.url, nil)
	query := func(ctx context.Context) error {
		_, err := h.call(ctx, OpQuery, 0, (*queryMsg)(&sq), new(queryAnswer))
		return err
	}
	if err := query(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * timeout / 2)
	delay.Store(int64(timeout * 6 / 10))
	if err := query(context.Background()); err != nil {
		t.Errorf("a call after the last one's timeout had passed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout/2)
	defer cancel()
	delay.Store(0)
	if err := query(ctx); err != nil {
		t.Errorf("a call under the caller's earlier deadline: %v", err)
	}
}

func TestHopDoesNotFollowRedirects(t *testing.T) {
	var elsewhere atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { elsewhere.Add(1) }))
	defer target.Close()
	var asked atomic.Int64
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		http.Redirect(w, r, target.URL+PathFrames, http.StatusTemporaryRedirect)
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
		t.Errorf("the redirect's target was asked %d times", n)
	}
	if n := asked.Load(); n != 2 {
		t.Errorf("the redirecting peer was asked %d times, want once per statement (a refused upgrade is an answer, never retried)", n)
	}
}

// flakyPeer drops the connection, unanswered, under each of the first
// failures frames it reads, and answers the rest.
func flakyPeer(t *testing.T, failures int) *fakePeer {
	_, _, sr := sealedAt(t, template.ExpStmt)
	var n atomic.Int64
	return newFakePeer(t, func(req *frame) []byte {
		if n.Add(1) <= int64(failures) {
			return nil
		}
		return answerFor(req, sr)
	})
}

// TestHopRetriesIdempotentCallsOnce: queries and invalidations are resent
// once after their connection failed, with the envelope and staleness
// value of the first attempt, on a fresh connection, and counted; an
// update is never resent; and a second failure is the error.
func TestHopRetriesIdempotentCallsOnce(t *testing.T) {
	sq, su, _ := sealedAt(t, template.ExpStmt)
	retries := func(reg *obs.Registry) int64 { return reg.Counter(obs.MHTTPRetries).Value() }
	proxy := func(failures int) (NodeProxy, *fakePeer, *obs.Registry) {
		peer, reg := flakyPeer(t, failures), obs.NewRegistry()
		return NewNodeProxy(peer.url, nil, reg), peer, reg
	}
	sameTwice := func(reqs []frame) bool {
		return len(reqs) == 2 && reqs[0].op == reqs[1].op && reqs[0].seq == reqs[1].seq &&
			len(reqs[0].body) > 0 && bytes.Equal(reqs[0].body, reqs[1].body)
	}

	p, peer, reg := proxy(1)
	if _, hit, err := p.Query(context.Background(), sq); err != nil || !hit {
		t.Errorf("query after one connection failure: hit %v, err %v", hit, err)
	}
	if reqs := peer.requests(); !sameTwice(reqs) || peer.connections() != 2 || retries(reg) != 1 {
		t.Errorf("query: %d attempts on %d connections (retries counted: %d), same twice: %v", len(reqs), peer.connections(), retries(reg), sameTwice(reqs))
	}

	p, peer, reg = proxy(1)
	if n, err := p.Invalidate(context.Background(), su, 7); err != nil || n != 1 {
		t.Errorf("invalidation after one connection failure: %d, err %v", n, err)
	}
	reqs := peer.requests()
	if !sameTwice(reqs) || retries(reg) != 1 {
		t.Errorf("invalidation: %d attempts (retries counted: %d)", len(reqs), retries(reg))
	}
	for i, req := range reqs {
		if req.op != OpInvalidate || req.seq != 7 {
			t.Errorf("invalidation attempt %d: %v with seq %d, want invalidate with 7", i, req.op, req.seq)
		}
	}

	p, peer, reg = proxy(1)
	if _, _, _, err := p.Update(context.Background(), su); err == nil {
		t.Error("update after a connection failure: no error")
	}
	if n := len(peer.requests()); n != 1 || retries(reg) != 0 {
		t.Errorf("update: %d attempts (retries counted: %d), want 1 and 0", n, retries(reg))
	}

	p, peer, _ = proxy(2)
	if _, _, err := p.Query(context.Background(), sq); err == nil {
		t.Error("query after two connection failures: no error")
	}
	if n := len(peer.requests()); n != 2 {
		t.Errorf("query against a dead peer: %d attempts, want 2", n)
	}

	// The trusted client decides the same way.
	peer = flakyPeer(t, 1)
	codec := wire.NewCodec(apps.Toystore(), encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	client := NewClient(codec, peer.url, nil)
	client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock())
	if _, _, err := client.Update(context.Background(), apps.Toystore().Update("U1"), 5); err == nil || len(peer.requests()) != 1 {
		t.Errorf("client update after a connection failure: err %v, %d attempts", err, len(peer.requests()))
	}
	if retries(client.Tracer.Registry()) != 0 {
		t.Error("client update counted a retry")
	}
}

// TestHopRequestShape: the upgrade is a bare GET of the base URL's path
// plus PathFrames, with the Host and the two upgrade headers and nothing
// else; the frame is the op, the first stream ID, status ok, the
// staleness values, and the envelope byte for byte.
func TestHopRequestShape(t *testing.T) {
	peer := answerPeer(t)
	sq, _, _ := sealedAt(t, template.ExpStmt)
	h := newHop(nil, peer.url+"/base", nil)
	if _, err := h.call(context.Background(), OpQuery, 3, (*queryMsg)(&sq), new(queryAnswer)); err != nil {
		t.Fatal(err)
	}
	up := peer.upgrades[0]
	if up.Method != http.MethodGet || up.RequestURI != "/base"+PathFrames || up.Host != strings.TrimPrefix(peer.url, "http://") {
		t.Errorf("upgrade request line: %s %s (Host %q)", up.Method, up.RequestURI, up.Host)
	}
	if len(up.Header) != 2 || up.Header.Get("Connection") != "Upgrade" || up.Header.Get("Upgrade") != frameProtocol {
		t.Errorf("upgrade header %v, want Connection and Upgrade alone", up.Header)
	}
	f := peer.requests()[0]
	want := (*queryMsg)(&sq).appendWire(nil)
	if f.op != OpQuery || f.stream != 1 || f.status != statusOK || f.seq != 3 || !bytes.Equal(f.body, want) {
		t.Errorf("frame %v stream %d status %v seq %d body %x, want query 1 ok 3 %x", f.op, f.stream, f.status, f.seq, f.body, want)
	}
}

// TestHopRefusesAnAnswerUnderAnotherOp: a body has no tag of its own, so
// the answer's op is what names its grammar. A peer that answers a query
// under the invalidate op, with a body the query's answer grammar would
// accept, fails the call, and nothing is decoded.
func TestHopRefusesAnAnswerUnderAnotherOp(t *testing.T) {
	sq, _, sr := sealedAt(t, template.ExpStmt)
	body := (&queryAnswer{result: sr, hit: true}).appendWire(nil)
	if err := new(queryAnswer).decodeWire(body); err != nil {
		t.Fatalf("the body does not decode as a query answer: %v", err)
	}
	peer := newFakePeer(t, func(req *frame) []byte {
		return encodeFrame(&frame{op: OpInvalidate, stream: req.stream, body: body})
	})
	var resp queryAnswer
	_, err := newHop(nil, peer.url, nil).call(context.Background(), OpQuery, 0, (*queryMsg)(&sq), &resp)
	if err == nil || !strings.Contains(err.Error(), "answered as "+OpInvalidate.String()) {
		t.Errorf("a query answered under %v: err %v, want a refusal naming the op", OpInvalidate, err)
	}
	if resp.hit || resp.result.Cipher != nil {
		t.Errorf("an answer under another op was decoded: %+v", resp)
	}
}

// TestHopReportsUnparsableURL: a base URL that does not parse, or names a
// scheme other than plain http, fails every call without a dial.
func TestHopReportsUnparsableURL(t *testing.T) {
	peer := answerPeer(t)
	sq, _, _ := sealedAt(t, template.ExpStmt)
	for _, base := range []string{"http://node\x7f.invalid", strings.Replace(peer.url, "http", "https", 1), strings.TrimPrefix(peer.url, "http://")} {
		h := newHop(nil, base, nil)
		if _, err := h.call(context.Background(), OpQuery, 0, (*queryMsg)(&sq), new(queryAnswer)); err == nil {
			t.Errorf("base URL %q carried a statement", base)
		}
	}
	if n := peer.connections(); n != 0 {
		t.Errorf("refused base URLs dialed %d times", n)
	}
}

// TestSequentialHopsShareOneConnection: sixty calls in a row, staleness
// values included, ride one connection, each on its own stream.
func TestSequentialHopsShareOneConnection(t *testing.T) {
	peer := answerPeer(t)
	sq, su, _ := sealedAt(t, template.ExpStmt)
	p := NewNodeProxy(peer.url, nil, nil)
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
	if n := peer.connections(); n != 1 {
		t.Errorf("60 sequential calls opened %d connections, want 1", n)
	}
	for i, f := range peer.requests() {
		if f.stream != uint32(i+1) {
			t.Fatalf("call %d went out on stream %d", i, f.stream)
		}
	}
}

// TestConcurrentCallsShareOneConnection: calls in flight together share
// the connection, and each gets its own answer though the peer answers
// them in reverse order.
func TestConcurrentCallsShareOneConnection(t *testing.T) {
	const calls = 10
	peer := newFakePeer(t, func(req *frame) []byte {
		time.Sleep(time.Duration(calls-req.seq) * 10 * time.Millisecond)
		return encodeFrame(&frame{op: req.op, stream: req.stream, body: appendInt(nil, int(req.seq))})
	})
	_, su, _ := sealedAt(t, template.ExpStmt)
	p := NewNodeProxy(peer.url, nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := p.Invalidate(context.Background(), su, uint64(i)); err != nil || n != i {
				t.Errorf("call %d: answer %d, err %v", i, n, err)
			}
		}()
	}
	wg.Wait()
	if n := peer.connections(); n != 1 {
		t.Errorf("%d concurrent calls opened %d connections, want 1", calls, n)
	}
}

// TestDroppedConnectionFailsEveryPendingCall: when the connection dies
// under calls in flight, every one of them fails at once — none waits out
// its timeout — and the next call dials again.
func TestDroppedConnectionFailsEveryPendingCall(t *testing.T) {
	const pending = 3
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	_, su, sr := sealedAt(t, template.ExpStmt)
	var n atomic.Int64
	peer := newFakePeer(t, func(req *frame) []byte {
		switch k := n.Add(1); {
		case k < pending:
			<-release // held in flight until the connection is gone
			return nil
		case k == pending:
			return nil // drops the connection
		default:
			return answerFor(req, sr)
		}
	})
	p := NewNodeProxy(peer.url, &http.Client{Timeout: DefaultTimeout}, nil)
	start := time.Now()
	errs := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() {
			_, _, _, err := p.Update(context.Background(), su)
			errs <- err
		}()
	}
	for i := 0; i < pending; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Errorf("call on a dropped connection: %v", err)
		}
	}
	if took := time.Since(start); took > DefaultTimeout/3 {
		t.Errorf("the pending calls failed after %v", took)
	}
	if _, _, _, err := p.Update(context.Background(), su); err != nil || peer.connections() != 2 {
		t.Errorf("the call after the drop: err %v, %d connections dialed, want a second", err, peer.connections())
	}
}

// roundTripFunc is an http.RoundTripper in one function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHopWithoutTransportUsesDefault: a hop takes the http.Client's
// Timeout — DefaultTimeout for a nil client — and in place of a nil
// Transport or an *http.Transport, the standard dialer, it dials and
// upgrades a frame connection of its own.
func TestHopWithoutTransportUsesDefault(t *testing.T) {
	peer := answerPeer(t)
	sq, _, _ := sealedAt(t, template.ExpStmt)
	for _, client := range []*http.Client{nil, {}, {Transport: &http.Transport{}}} {
		var resp queryAnswer
		h := newHop(client, peer.url, nil)
		if _, err := h.call(context.Background(), OpQuery, 0, (*queryMsg)(&sq), &resp); err != nil || !resp.hit {
			t.Errorf("client %+v: hit %v, err %v", client, resp.hit, err)
		}
		h.close()
	}
	if n := peer.connections(); n != 3 {
		t.Errorf("three hops upgraded %d connections, want 3", n)
	}
	if got := newHop(nil, peer.url, nil).timeout; got != DefaultTimeout {
		t.Errorf("a nil client's hop is bounded by %v, want %v", got, DefaultTimeout)
	}
}

// countingTransport is a RoundTripper of a client's own: it records the
// requests it carries and fails, before sending, the first failures of
// them.
type countingTransport struct {
	inner    http.RoundTripper
	failures atomic.Int64

	mu   sync.Mutex
	reqs []string // method and path
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.reqs = append(c.reqs, r.Method+" "+r.URL.Path)
	c.mu.Unlock()
	if c.failures.Add(-1) >= 0 {
		return nil, errors.New("connection reset")
	}
	return c.inner.RoundTrip(r)
}

func (c *countingTransport) carried() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.reqs...)
}

// TestHopPostsFramesThroughTheClientsRoundTripper: a client with a
// RoundTripper of its own keeps carrying every statement. Each call is one
// POST of one frame to PathFrames through it, answered by the handlers a
// frame connection reaches; a lost request is resent once for an
// idempotent op and never for an update; a refusal is an answer, never
// resent; and the timeout bounds a call whose handler hangs.
func TestHopPostsFramesThroughTheClientsRoundTripper(t *testing.T) {
	c := newContractServers(t)
	sq, su, _ := sealedAt(t, template.ExpStmt)
	std := &http.Transport{}
	t.Cleanup(std.CloseIdleConnections)
	proxy := func(base string, failures int) (NodeProxy, *countingTransport, *obs.Registry) {
		rt, reg := &countingTransport{inner: std}, obs.NewRegistry()
		rt.failures.Store(int64(failures))
		return NewNodeProxy(base, &http.Client{Timeout: DefaultTimeout, Transport: rt}, reg), rt, reg
	}
	retries := func(reg *obs.Registry) int64 { return reg.Counter(obs.MHTTPRetries).Value() }
	post := "POST " + PathFrames

	for _, server := range []string{"node", "router"} {
		p, rt, _ := proxy(c.urls[server], 0)
		if res, _, err := p.Query(context.Background(), sq); err != nil || res.Size() == 0 {
			t.Errorf("%s: query: %d result bytes, err %v", server, res.Size(), err)
		}
		if _, _, _, err := p.Update(context.Background(), su); err != nil {
			t.Errorf("%s: update: %v", server, err)
		}
		if got := rt.carried(); len(got) != 2 || got[0] != post || got[1] != post {
			t.Errorf("%s: the RoundTripper carried %q, want two POSTs of %s", server, got, PathFrames)
		}
	}

	p, rt, reg := proxy(c.urls["node"], 1)
	if _, _, err := p.Query(context.Background(), sq); err != nil || len(rt.carried()) != 2 || retries(reg) != 1 {
		t.Errorf("query after one lost request: err %v, %d requests, %d retries", err, len(rt.carried()), retries(reg))
	}
	p, rt, reg = proxy(c.urls["node"], 1)
	if _, _, _, err := p.Update(context.Background(), su); err == nil || len(rt.carried()) != 1 || retries(reg) != 0 {
		t.Errorf("update after one lost request: err %v, %d requests, %d retries", err, len(rt.carried()), retries(reg))
	}

	gone := startServer(t, http.NotFoundHandler())
	p, rt, _ = proxy(gone.URL, 0)
	if _, _, err := p.Query(context.Background(), sq); err == nil || !strings.Contains(err.Error(), "404") || len(rt.carried()) != 1 {
		t.Errorf("a peer without frames: err %v after %d requests, want one naming 404", err, len(rt.carried()))
	}

	hung := startFrameServer(t, &frameOps{OpQuery: func(ctx context.Context, _, resp *frame) {
		<-ctx.Done()
		resp.fail(statusFailed, ctx.Err())
	}})
	const timeout = 150 * time.Millisecond
	h := newHop(&http.Client{Timeout: timeout, Transport: &countingTransport{inner: std}}, hung.URL, nil)
	start := time.Now()
	_, err := h.call(context.Background(), OpQuery, 0, (*queryMsg)(&sq), new(queryAnswer))
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took < timeout || took > 20*timeout {
		t.Errorf("a hung handler under a %v timeout: err %v after %v", timeout, err, took)
	}
}

// TestHopWriteToAPeerThatStopsReadingTimesOut: a peer that takes the
// upgrade and then never reads cannot hold the connection's write mutex
// past a call's timeout. A frame larger than the socket buffers blocks
// its write; that call, and one queued behind it on the write mutex, both
// return within their timeout.
func TestHopWriteToAPeerThatStopsReadingTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := http.ReadRequest(bufio.NewReader(nc)); err != nil {
			return
		}
		_, _ = io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+frameProtocol+"\r\n\r\n")
		<-release // and never read a frame
	}()
	t.Cleanup(func() { close(release); ln.Close(); wg.Wait() })

	_, su, _ := sealedAt(t, template.ExpStmt)
	big := su
	big.Opaque = make([]byte, maxMessageBytes-1<<20)
	const timeout = 200 * time.Millisecond
	h := newHop(&http.Client{Timeout: timeout}, "http://"+ln.Addr().String(), nil)
	defer h.close()
	start := time.Now()
	errs := make(chan error, 2)
	for _, u := range []wire.SealedUpdate{big, su} {
		go func() {
			_, err := h.call(context.Background(), OpUpdate, 0, (*updateMsg)(&u), new(updateAnswer))
			errs <- err
		}()
		time.Sleep(timeout / 4) // the large frame's write goes first
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a call to a peer that never reads succeeded")
			}
		case <-time.After(20 * timeout):
			t.Fatalf("a call to a peer that never reads is still blocked after %v", time.Since(start))
		}
	}
}

// TestOversizedAnswerFailsOnlyItsCall: an answer over its op's bound is
// refused too large on its own stream at the server, so the sender's
// reader never sees it: that call fails with the refusal, and an update in
// flight on the same connection — which could not be resent — is answered.
func TestOversizedAnswerFailsOnlyItsCall(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := startFrameServer(t, &frameOps{
		OpQuery: func(_ context.Context, _, resp *frame) {
			resp.body = append(resp.body, make([]byte, OpQuery.bound(dirAnswer))...)
		},
		OpUpdate: func(_ context.Context, _, resp *frame) {
			close(entered)
			<-release
			resp.body = (&updateAnswer{affected: 1}).appendWire(resp.body)
		},
	})
	sq, su, _ := sealedAt(t, template.ExpStmt)
	p := NewNodeProxy(srv.URL, nil, nil)
	updated := make(chan error, 1)
	go func() {
		_, _, _, err := p.Update(context.Background(), su)
		updated <- err
	}()
	<-entered
	if _, _, err := p.Query(context.Background(), sq); err == nil || !strings.Contains(err.Error(), statusTooLarge.String()) {
		t.Errorf("an oversized answer: err %v, want a too large refusal", err)
	}
	close(release)
	if err := <-updated; err != nil {
		t.Errorf("the update in flight beside the oversized answer: %v", err)
	}
}

// TestCallPastItsDeadlineLeavesTheConnection: a call whose deadline has
// already passed fails without writing — a write under that deadline would
// fail and take the connection down — so an update in flight on the same
// connection, which could not be resent, is still answered.
func TestCallPastItsDeadlineLeavesTheConnection(t *testing.T) {
	_, su, sr := sealedAt(t, template.ExpStmt)
	entered, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release)
	peer := newFakePeer(t, func(req *frame) []byte {
		if req.op == OpUpdate {
			close(entered)
			<-held
		}
		return answerFor(req, sr)
	})
	p := NewNodeProxy(peer.url, nil, nil)
	updated := make(chan error, 1)
	go func() {
		_, _, _, err := p.Update(context.Background(), su)
		updated <- err
	}()
	<-entered
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := p.Invalidate(past, su, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("a call past its deadline: err %v", err)
	}
	release()
	if err := <-updated; err != nil {
		t.Errorf("the update in flight beside it: %v", err)
	}
	if n := peer.connections(); n != 1 {
		t.Errorf("%d connections dialed, want 1", n)
	}
}

// TestAbandonedCallsAreNeverReused runs calls on one connection whose
// callers give up at about the time their answers arrive (run it under
// -race). A call given up on while the connection's reader was handing it
// its answer is never taken from the pool again, and every answer a caller
// gets is its own: each carries back the seq its call went out with.
func TestAbandonedCallsAreNeverReused(t *testing.T) {
	srv := startFrameServer(t, &frameOps{OpInvalidate: func(_ context.Context, req, resp *frame) {
		time.Sleep(time.Duration(req.seq%4) * 250 * time.Microsecond)
		resp.body = appendInt(resp.body, int(req.seq))
	}})
	h := newHop(nil, srv.URL, nil)
	defer h.close()
	var (
		abandoned        sync.Map // *call → true
		next             atomic.Uint64
		answered, gaveUp atomic.Int64
		wg               sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				seq := next.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seq%5)*500*time.Microsecond)
				k := takeCall()
				if _, ok := abandoned.Load(k); ok {
					t.Error("an abandoned call was taken from the pool again")
				}
				k.out = append(k.out, byte(seq))
				body, _, err := h.send(ctx, k, OpInvalidate, seq)
				cancel()
				if k.abandoned {
					abandoned.Store(k, true)
				}
				if err == nil {
					var n countMsg
					if err := n.decodeWire(body); err != nil || uint64(n) != seq {
						t.Errorf("the call with seq %d was answered %d (err %v)", seq, n, err)
					}
					answered.Add(1)
				} else {
					gaveUp.Add(1)
				}
				k.release()
			}
		}()
	}
	wg.Wait()
	if answered.Load() == 0 || gaveUp.Load() == 0 {
		t.Errorf("%d calls answered, %d given up: the test wants both", answered.Load(), gaveUp.Load())
	}
	n := 0
	abandoned.Range(func(any, any) bool { n++; return true })
	t.Logf("%d answered, %d given up, %d of them while their answer was being handed over", answered.Load(), gaveUp.Load(), n)
}
